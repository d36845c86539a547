"""End-to-end command-line behaviour, driven through main(argv)."""

import json
import os
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from scheme_spectra import BoundReport, CycInt, NotOrthogonal, Spectrum, SpectrumEntry
from scheme_spectra import cli, composition, oracles, representation


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_frozen_output(capsys):
    code, out, err = run(
        capsys, "spectrum", "--family", "hamming", "--n", "3", "--q", "3", "--d", "3"
    )
    assert code == 0 and err == ""
    assert out == (
        '{"degree": "8", "entries": ['
        '{"eigenvalue": 8, "multiplicity": "1", "shell": 0}, '
        '{"eigenvalue": -4, "multiplicity": "6", "shell": 1}, '
        '{"eigenvalue": 2, "multiplicity": "12", "shell": 2}, '
        '{"eigenvalue": -1, "multiplicity": "8", "shell": 3}], '
        '"graph": {"d": 3, "family": "hamming", "n": 3, "q": 3}, '
        '"vertices": "27"}\n'
    )


def test_spectrum_composition_defaults_to_balanced(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--family", "composition", "--n", "4", "--q", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["dcomp"] == [2, 2]
    assert [e["eigenvalue"] for e in data["entries"]] == [6, 0, -2, 0, 6]


def test_spectrum_accepts_explicit_composition(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--family", "composition", "--n", "3", "--q", "3",
        "--comp", "1,2,0",
    )
    assert code == 0
    assert json.loads(out)["graph"]["dcomp"] == [1, 2, 0]


def test_spectrum_over_the_composition_work_cap_is_a_flag_error(capsys):
    assert run(
        capsys, "spectrum", "--family", "composition", "--n", "40", "--q", "7",
        "--comp", "35,1,1,1,1,1,0",
    ) == (2, "", "error: composition spectrum would cost 18359108600 units "
                 "(shells x n x q x root order, plus 128 per successor table); "
                 "cap is 250000000\n")


def test_repeat_invocations_are_byte_identical(capsys):
    args = ("spectrum", "--family", "composition", "--n", "6", "--q", "3")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# bounds


def test_bounds_field_pair_is_exact(capsys):
    code, out, _ = run(
        capsys, "bounds", "--family", "composition", "--group", "field",
        "--q", "3", "--n", "9",
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == "9"
    assert data["graph"]["group"]["kind"] == "field"


def test_bounds_hamming_report(capsys):
    code, out, _ = run(
        capsys, "bounds", "--family", "hamming", "--n", "3", "--q", "3", "--d", "3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["lower"] == [{"method": "hoffman", "value": "3"}]
    assert data["upper"] == [{"method": "lp-two-support", "value": "9"}]
    assert data["exact"] is None


# ---------------------------------------------------------------------------
# represent


def test_represent_writes_csv_and_summary(capsys, tmp_path):
    out_path = tmp_path / "rep.csv"
    code, out, err = run(
        capsys, "represent", "--n", "4", "--q", "2", "--d", "2", "--out", str(out_path)
    )
    assert code == 0 and err == ""
    summary = json.loads(out)
    assert summary["verified"] is True
    assert summary["rows"] == "16" and summary["columns"] == 4
    assert summary["mode"] == "full"
    lines = out_path.read_text().splitlines()
    assert lines[0] == "root_order,2"
    assert lines[1] == "vertex,c0,c1,c2,c3"
    assert len(lines) == 18


def test_represent_streams_csv_without_out(capsys):
    code, out, err = run(capsys, "represent", "--n", "2", "--q", "2", "--d", "1")
    assert code == 0
    assert out.startswith("root_order,2\n")
    summary = json.loads(err)
    assert summary["out"] is None


def test_represent_sampled_mode_reports_its_seed(capsys, tmp_path):
    code, out, _ = run(
        capsys, "represent", "--n", "4", "--q", "2", "--d", "2",
        "--out", str(tmp_path / "r.csv"), "--sample", "32",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["mode"] == "sampled"
    assert summary["sample"] == 32
    assert summary["seed"] == "15132536781063983816"


def test_represent_rejects_a_vacuous_sample(capsys, tmp_path):
    # an empty sample would report "verified": true having checked no pair
    out_path = tmp_path / "rep.csv"
    for value in ("0", "-5"):
        assert run(capsys, "represent", "--n", "4", "--q", "2", "--d", "2", "--sample", value) == (
            2, "", f"error: need sample >= 1, got {value}\n"
        )
        assert run(
            capsys, "represent", "--n", "4", "--q", "2", "--d", "2",
            "--sample", value, "--out", str(out_path),
        ) == (2, "", f"error: need sample >= 1, got {value}\n")
    assert not out_path.exists()


def test_represent_over_the_row_cap_is_a_flag_error(capsys, tmp_path):
    out_path = tmp_path / "rep.csv"
    expected = (2, "", "error: representation would have 2097152 rows; cap is 1048576\n")
    assert run(capsys, "represent", "--n", "21", "--q", "2", "--d", "11") == expected
    assert run(
        capsys, "represent", "--n", "21", "--q", "2", "--d", "11", "--out", str(out_path)
    ) == expected
    assert not out_path.exists()


def test_represent_over_the_cell_cap_is_a_flag_error(capsys, tmp_path):
    # 2^20 rows pass the row cap, but 127296 columns would be about 1 TB of exponents
    out_path = tmp_path / "rep.csv"
    start = time.perf_counter()
    assert run(
        capsys, "represent", "--n", "20", "--q", "2", "--d", "2", "--out", str(out_path)
    ) == (2, "", "error: representation would have 1048576 x 127296 = 133479530496 cells; "
                 "cap is 134217728\n")
    assert time.perf_counter() - start < 2.0
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# probe


def test_probe_not_applicable_exact_bytes(capsys):
    code, out, _ = run(capsys, "probe", "--q", "4", "--n", "4")
    assert code == 0
    assert out == '{"reason": "(q-1)n/q odd", "verdict": "not-applicable"}\n'


def test_probe_holds(capsys):
    code, out, _ = run(capsys, "probe", "--q", "2", "--n", "8")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds"
    assert data["minimum"] == "-10"


def test_probe_runs_past_the_composition_work_cap(capsys):
    code, out, _ = run(capsys, "probe", "--q", "7", "--n", "21")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "holds"
    assert data["minimum"] == data["conjectured"] == "-9125468352000"


def test_probe_over_the_balanced_work_cap_is_a_flag_error(capsys):
    assert run(capsys, "probe", "--q", "10", "--n", "20") == (
        2, "", "error: balanced spectrum would cost 89956772 units "
               "(multiply-adds of the group determinant route); cap is 25000000\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_projectors_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "projectors", "--max-n", "3")
    assert code == 0
    assert "ok - projector identities" in out
    assert out.strip().endswith("all checks passed (projectors)")


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "4")
    assert code == 0
    assert out.count("ok - ") >= 6
    assert "FAIL" not in out


def test_verify_output_is_pinned_byte_for_byte(capsys):
    assert run(capsys, "verify", "--suite", "all", "--max-n", "4") == (
        0,
        "ok - classical reciprocity, q in 2..5, n <= 4\n"
        "ok - composition reciprocity, q in 2..3, n <= 4\n"
        "ok - projector identities on 93 grids\n"
        "ok - lp representations over 14 graphs\n"
        "ok - hadamard representations on 4 graphs\n"
        "ok - least-eigenvalue closed forms, n <= 4\n"
        "ok - balanced spectra: trace, zero shells, circulant agreement, n <= 4\n"
        "ok - eigenvector adjacency action spot checks\n"
        "all checks passed (reciprocity, projectors, representations, eigenvalues)\n",
        "",
    )
    assert run(capsys, "verify", "--suite", "reciprocity", "--max-n", "3") == (
        0,
        "ok - classical reciprocity, q in 2..5, n <= 3\n"
        "ok - composition reciprocity, q in 2..3, n <= 3\n"
        "all checks passed (reciprocity)\n",
        "",
    )


def test_verify_rejects_a_vacuous_max_n(capsys):
    # below 1 every grid is empty, so the suites would pass having checked nothing
    for value in ("0", "-3"):
        assert run(capsys, "verify", "--suite", "all", "--max-n", value) == (
            2, "", f"error: need --max-n >= 1, got {value}\n"
        )


def test_verify_stops_each_hadamard_alphabet_at_the_row_cap(capsys):
    # GF(4) at n = 12 would have 4**12 rows, over REPRESENTATION_MAX_ROWS; the
    # suite checks n = 4 and 8 there, and 2..12 for q = 2 and 3..12 for q = 3
    assert run(capsys, "verify", "--suite", "representations", "--max-n", "12") == (
        0,
        "ok - lp representations over 55 graphs\n"
        "ok - hadamard representations on 12 graphs\n"
        "all checks passed (representations)\n",
        "",
    )


def test_verify_composition_line_ignores_classical_failures(capsys, monkeypatch):
    real_kraw = cli.kraw

    def broken(n, q, i, j):
        return real_kraw(n, q, i, j) + (1 if (n, q, i, j) == (2, 3, 0, 1) else 0)

    monkeypatch.setattr(cli, "kraw", broken)
    code, out, _ = run(capsys, "verify", "--suite", "reciprocity", "--max-n", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL - classical reciprocity")
    assert lines[1].startswith("ok - composition reciprocity")


def test_verify_reciprocity_computes_each_value_once(capsys, monkeypatch):
    # N shells give N^2 ordered pairs and so N^2 distinct values; each is
    # computed once, where two calls per pair would make 2 N^2: the classical
    # ones by one kraw call each, the composition ones by one expansion per
    # generator, which reads out its whole column, and no gen_kraw call
    real_kraw, real_read_out = cli.kraw, composition._read_out
    classical, columns = {}, {}

    def counting_kraw(n, q, i, j):
        classical[q, n] = classical.get((q, n), 0) + 1
        return real_kraw(n, q, i, j)

    def counting_read_out(group, n, x, *degree):
        key = (group.order, n)
        columns[key] = columns.get(key, 0) + 1
        return real_read_out(group, n, x, *degree)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reciprocity suite expanded one value at a time")

    monkeypatch.setattr(cli, "kraw", counting_kraw)
    monkeypatch.setattr(composition, "_read_out", counting_read_out)
    monkeypatch.setattr(oracles, "gen_kraw", forbidden)
    assert run(capsys, "verify", "--suite", "reciprocity", "--max-n", "5")[0] == 0
    assert classical == {(q, n): (n + 1) ** 2 for q in (2, 3, 4, 5) for n in range(1, 6)}
    assert columns == {(q, n): comb(n + q - 1, q - 1) for q in (2, 3) for n in range(1, 6)}
    assert sum(columns.values()) == 75


def test_a_wrong_value_fails_both_of_its_reciprocity_pairs(monkeypatch):
    # the planted value is the left-hand side of (i, j) and the right-hand
    # side of (j, i), so both ordered pairs fail, in the order they are met
    real_kraw, real_read_out = cli.kraw, composition._read_out

    def broken_kraw(n, q, i, j):
        return real_kraw(n, q, i, j) + (1 if (n, q, i, j) == (3, 4, 2, 1) else 0)

    def broken_read_out(group, n, x, *degree):
        # K_i(j) with i = (0, 1, 1) is entry i of the column of j = (1, 1, 0)
        values, computed = real_read_out(group, n, x, *degree)
        if (group.order, n, tuple(x)) == (3, 2, (1, 1, 0)):
            values = list(values)
            values[composition._colex_shells(3, 2)[0].index((0, 1, 1))] += 1
        return values, computed

    monkeypatch.setattr(cli, "kraw", broken_kraw)
    monkeypatch.setattr(composition, "_read_out", broken_read_out)
    assert cli._check_classical_reciprocity(3)[1] == [
        "classical reciprocity at q=4 n=3 i=1 j=2",
        "classical reciprocity at q=4 n=3 i=2 j=1",
    ]
    assert cli._check_composition_reciprocity(3)[1] == [
        "composition reciprocity at q=3 n=2 i=(1, 1, 0) j=(0, 1, 1)",
        "composition reciprocity at q=3 n=2 i=(0, 1, 1) j=(1, 1, 0)",
    ]


def test_verify_hadamard_line_ignores_lp_failures(capsys, monkeypatch):
    real_verify = representation.verify_representation

    def lp_only_fails(rep, spec, sample=None):
        if rep.provenance == "lp-orthogonal-representation":
            raise NotOrthogonal(0, 1, (0,), (1,))
        return real_verify(rep, spec, sample=sample)

    monkeypatch.setattr(representation, "verify_representation", lp_only_fails)
    code, out, _ = run(capsys, "verify", "--suite", "representations", "--max-n", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("FAIL - lp representations")
    assert lines[1].startswith("ok - hadamard representations")


def test_verify_eigenvalues_checks_the_report_route(capsys, monkeypatch):
    real_report = cli.bound_report

    def off_by_one(spec):
        report = real_report(spec)
        if (spec.n, spec.q, spec.d) != (3, 3, 3):
            return report
        ((value, tag),) = report.lower
        return BoundReport(
            report.graph, ((value + 1, tag),), report.upper, report.exact, report.diagnostics
        )

    monkeypatch.setattr(cli, "bound_report", off_by_one)
    assert run(capsys, "verify", "--suite", "eigenvalues", "--max-n", "3") == (
        1,
        "FAIL - least-eigenvalue closed forms, n <= 3\n"
        "ok - balanced spectra: trace, zero shells, circulant agreement, n <= 3\n"
        "ok - eigenvector adjacency action spot checks\n"
        "FAIL: report bound closed form at n=3 q=3 d=3\n",
        "",
    )


def test_verify_reports_an_irrational_balanced_value(monkeypatch):
    real_spectrum = composition.composition_spectrum

    def with_irrational_entry(spec):
        sp = real_spectrum(spec)
        if spec.group.order != 3:
            return sp
        e = sp.entries[1]
        entries = list(sp.entries)
        entries[1] = SpectrumEntry(e.label, CycInt(3, (0, 1)), e.multiplicity)
        return Spectrum(sp.graph, tuple(entries), sp.regular_degree, sp.vertex_count)

    monkeypatch.setattr(composition, "composition_spectrum", with_irrational_entry)
    title, failures = cli._check_balanced_spectra(3)
    assert title == "balanced spectra: trace, zero shells, circulant agreement, n <= 3"
    assert "irrational balanced value at q=3 n=3 shell=(2, 1, 0)" in failures


# ---------------------------------------------------------------------------
# table


def test_table_exact_family(capsys):
    code, out, _ = run(capsys, "table", "--theorem", "1.3", "--grid", "n<=6,q in {2,3}")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,q,n,lower,upper,exact"
    assert "cyclic,2,4,4,4,4" in lines
    assert "field,3,6,6,6,6" in lines


def test_table_accepts_unicode_grid(capsys):
    _, ascii_out, _ = run(capsys, "table", "--theorem", "1.2", "--grid", "n<=5,q in {3}")
    _, unicode_out, _ = run(capsys, "table", "--theorem", "1.2", "--grid", "n≤5,q∈{3}")
    assert ascii_out == unicode_out
    assert ascii_out.splitlines()[0] == "n,q,d,case,hoffman"
    assert "3,3,2,balanced,5" in ascii_out.splitlines()


def test_table_upper_family(capsys):
    code, out, _ = run(capsys, "table", "--theorem", "1.1", "--grid", "n<=4,q in {2}")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,q,d,regime,lp_objective,regime_cap"
    assert all(len(line.split(",")) == 6 for line in lines[1:])


def test_table_rejects_malformed_grid(capsys):
    code, _, err = run(capsys, "table", "--theorem", "1.1", "--grid", "everything")
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("bounds", "--family", "composition", "--n", "2", "--q", "3", "--comp", "1,x"),
         "error: cannot parse composition '1,x'\n"),
        (("bounds", "--family", "composition", "--n", "2", "--q", "3", "--comp", "1,1,0",
          "--modulus", "1,1"),
         "error: --modulus only applies to --group field\n"),
        (("bounds", "--family", "hamming", "--n", "2", "--q", "4", "--d", "1", "--group", "field"),
         "error: hamming graphs do not take --group/--modulus\n"),
        (("table", "--theorem", "1.1", "--grid", "n<=0,q in {2}"),
         "error: degenerate grid 'n<=0,q in {2}'\n"),
    ],
    ids=["comp-not-a-number", "modulus-with-cyclic", "hamming-with-field", "grid-n-0"],
)
def test_flag_refusals_are_pinned_byte_for_byte(capsys, argv, expected):
    assert run(capsys, *argv) == (2, "", expected)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "hamming", "--n", "3", "--q", "3", "--frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "hamming", "--n", "3"])
    assert exc.value.code == 2


def test_semantic_flag_errors_exit_2(capsys):
    code, _, err = run(capsys, "probe", "--q", "3", "--n", "7")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "spectrum", "--family", "hamming", "--n", "3", "--q", "3", "--d", "9")
    assert code == 2
    code, _, err = run(capsys, "spectrum", "--family", "hamming", "--n", "3", "--q", "3")
    assert code == 2  # hamming needs --d
    code, _, err = run(capsys, "bounds", "--family", "composition", "--group", "field",
                       "--q", "6", "--n", "6")
    assert code == 2  # six is not a prime power


def test_hamming_flag_errors_are_pinned_byte_for_byte(capsys):
    cases = [
        (("bounds", "--family", "hamming", "--n", "5", "--q", "3", "--d", "0"),
         "error: distance d=0 outside 1..5\n"),
        (("spectrum", "--family", "hamming", "--n", "3", "--q", "3", "--d", "4"),
         "error: distance d=4 outside 1..3\n"),
        (("spectrum", "--family", "hamming", "--n", "3", "--q", "1", "--d", "1"),
         "error: need n >= 1 and q >= 2, got n=3, q=1\n"),
        (("represent", "--n", "4", "--q", "2", "--d", "5"),
         "error: distance d=5 outside 1..4\n"),
        (("represent", "--n", "0", "--q", "2", "--d", "0"),
         "error: need n >= 1 and q >= 2, got n=0, q=2\n"),
        (("probe", "--q", "1", "--n", "6"), "error: need q >= 2, got q=1\n"),
        (("probe", "--q", "3", "--n", "-3"), "error: need n >= 1, got n=-3\n"),
    ]
    for argv, expected in cases:
        assert run(capsys, *argv) == (2, "", expected)


def test_inapplicable_graph_flags_are_pinned_byte_for_byte(capsys):
    cases = [
        (("bounds", "--family", "hamming", "--n", "5", "--q", "3", "--d", "5", "--comp", "1,1"),
         "error: hamming graphs do not take --comp\n"),
        (("spectrum", "--family", "composition", "--n", "3", "--q", "3", "--d", "2"),
         "error: composition graphs do not take --d\n"),
    ]
    for argv, expected in cases:
        assert run(capsys, *argv) == (2, "", expected)


def test_verification_failure_exits_1(capsys, monkeypatch):
    def explode(rep, spec, sample=None):
        raise NotOrthogonal(0, 1, (0, 0), (0, 1))

    monkeypatch.setattr(representation, "verify_representation", explode)
    code, _, err = run(capsys, "represent", "--n", "4", "--q", "2", "--d", "2")
    assert code == 1
    assert "verification failed" in err
    assert "rows 0 and 1" in err


# ---------------------------------------------------------------------------
# long exact values and a closed stdout

_LONG_Q = 10**2200 + 1  # the vertex count q^2 has 4401 digits


def test_exact_values_past_the_digit_limit_print_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "spectrum", "--family", "hamming", "--n", "2", "--q", str(_LONG_Q), "--d", "1"
    )
    # main() restores the limit, so that in-process callers see no change
    assert (code, err, sys.get_int_max_str_digits()) == (0, "", limit)
    q = _LONG_Q
    # H(2, q, 1): K_1(j) = 2(q-1), q-2, -2 on shells of sizes 1, 2(q-1), (q-1)^2
    sys.set_int_max_str_digits(0)
    try:
        expected = {
            "degree": str(2 * (q - 1)),
            "entries": [
                {"eigenvalue": 2 * (q - 1), "multiplicity": "1", "shell": 0},
                {"eigenvalue": q - 2, "multiplicity": str(2 * (q - 1)), "shell": 1},
                {"eigenvalue": -2, "multiplicity": str((q - 1) ** 2), "shell": 2},
            ],
            "graph": {"d": 1, "family": "hamming", "n": 2, "q": q},
            "vertices": str(q * q),
        }
        assert out == cli._dump(expected) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def test_flag_text_keeps_the_digit_limit(capsys):
    over = "1" + "0" * 4300  # 4301 digits
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectrum", "--family", "hamming", "--n", "2", "--q", over, "--d", "1"])
    assert exc.value.code == 2
    assert "argument --q: invalid int value" in capsys.readouterr().err
    # the numbers in --comp and --grid are read under the limit too
    code, out, err = run(
        capsys, "spectrum", "--family", "composition", "--n", "3", "--q", "3",
        "--comp", over + ",0,0",
    )
    assert (code, out, err) == (2, "", f"error: cannot parse composition '{over},0,0'\n")
    code, out, err = run(capsys, "table", "--theorem", "1.1", "--grid", f"n<={over},q in {{2}}")
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")


def test_a_closed_pipe_ends_the_process_quietly_with_141():
    # the reader takes one line and closes the pipe, as `| head -1` does
    proc = subprocess.Popen(
        [sys.executable, "-m", "scheme_spectra.cli", "table", "--theorem", "1.1",
         "--grid", "n<=60,q in {2,3,4,5}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), first, err) == (
        141, b"n,q,d,regime,lp_objective,regime_cap\n", b""
    )


# ---------------------------------------------------------------------------
# deferred imports: numpy loads only on the paths that use it, mpmath never

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs main(argv) and then reports, as the last line of stderr, which of the
# two heavy packages the process has loaded.
_FRESH_MAIN = """
import sys
import scheme_spectra.cli
code = scheme_spectra.cli.main(sys.argv[1:])
sys.stdout.flush()
print(",".join(sorted({"numpy", "mpmath"} & set(sys.modules))), file=sys.stderr)
sys.exit(code)
"""


def fresh_python(*args, cwd=None):
    # the test process itself already holds numpy, so each check needs a new interpreter
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def test_importing_the_cli_loads_no_heavy_or_code_generating_module():
    # numpy and mpmath are heavy; dataclasses (with the inspect it imports)
    # would compile generated source for every record class at import
    proc = fresh_python(
        "-c",
        "import sys, scheme_spectra, scheme_spectra.cli; "
        "print(sorted({'numpy', 'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


_DEFERRED_CASES = [
    pytest.param(
        ("spectrum", "--family", "hamming", "--n", "5", "--q", "3", "--d", "4"), "",
        id="spectrum-hamming",
    ),
    pytest.param(
        ("spectrum", "--family", "composition", "--n", "3", "--q", "3"), "",
        id="spectrum-balanced-z3",
    ),
    pytest.param(
        ("bounds", "--family", "hamming", "--n", "5", "--q", "3", "--d", "4"), "",
        id="bounds-hamming",
    ),
    pytest.param(
        ("bounds", "--family", "composition", "--n", "6", "--q", "3"), "",
        id="bounds-rational-composition",
    ),
    pytest.param(("probe", "--q", "3", "--n", "6"), "", id="probe"),
    pytest.param(("table", "--theorem", "1.1", "--grid", "n<=4,q in {2,3}"), "", id="table-1.1"),
    pytest.param(("table", "--theorem", "1.2", "--grid", "n<=5,q in {3}"), "", id="table-1.2"),
    pytest.param(("table", "--theorem", "1.3", "--grid", "n<=6,q in {2,3}"), "", id="table-1.3"),
    pytest.param(("verify", "--suite", "reciprocity", "--max-n", "3"), "", id="verify-reciprocity"),
    pytest.param(("verify", "--suite", "eigenvalues", "--max-n", "3"), "", id="verify-eigenvalues"),
    pytest.param(
        ("represent", "--n", "4", "--q", "3", "--d", "3", "--out", "rep.csv"), "numpy",
        id="represent",
    ),
    # a vacuous sample is refused before the matrix is built
    pytest.param(
        ("represent", "--n", "20", "--q", "2", "--d", "3", "--sample", "0"), "",
        id="represent-vacuous-sample",
    ),
    pytest.param(("verify", "--suite", "projectors", "--max-n", "2"), "numpy", id="verify-projectors"),
    # the least eigenvalue is irrational; its cosine table is plain integer arithmetic
    pytest.param(
        ("bounds", "--family", "composition", "--q", "5", "--n", "4", "--comp", "2,1,0,0,1"),
        "",
        id="bounds-irrational-composition",
    ),
]


@pytest.mark.parametrize("argv, loads", _DEFERRED_CASES)
def test_first_call_in_a_fresh_process_loads_only_what_it_needs(
    argv, loads, capsys, tmp_path, monkeypatch
):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "in-process").mkdir()
    proc = fresh_python("-c", _FRESH_MAIN, *argv, cwd=tmp_path / "fresh")
    err, newline, loaded = proc.stderr[:-1].rpartition("\n")
    assert loaded == loads
    monkeypatch.chdir(tmp_path / "in-process")
    assert (proc.returncode, proc.stdout, err + newline) == run(capsys, *argv)
    if "--out" in argv:
        fresh_csv = (tmp_path / "fresh" / "rep.csv").read_bytes()
        assert fresh_csv == (tmp_path / "in-process" / "rep.csv").read_bytes()


# The representation layer, scheme_spectra.representation, is compiled only
# for represent and the representation suite: which of it and numpy each
# case of _DEFERRED_CASES loads, and the suite besides.
_FRESH_LAYERS = _FRESH_MAIN.replace('"mpmath"', '"scheme_spectra.representation"')

_LAYERS_LOADED = {
    "represent": "numpy,scheme_spectra.representation",
    # its sample check is the layer's, and numpy stays unloaded
    "represent-vacuous-sample": "scheme_spectra.representation",
    "verify-projectors": "numpy",
}


@pytest.mark.parametrize("argv, loads", [
    *(pytest.param(case.values[0], _LAYERS_LOADED.get(case.id, ""), id=case.id)
      for case in _DEFERRED_CASES),
    pytest.param(("verify", "--suite", "representations", "--max-n", "2"),
                 "numpy,scheme_spectra.representation", id="verify-representations"),
])
def test_only_the_representation_paths_compile_the_representation_layer(argv, loads, tmp_path):
    proc = fresh_python("-c", _FRESH_LAYERS, *argv, cwd=tmp_path)
    assert proc.stderr.splitlines()[-1] == loads


# The composition scheme, scheme_spectra.composition, the alphabets,
# scheme_spectra.groups, and the cyclotomic ring, scheme_spectra.cyclotomic,
# are compiled only on the composition paths, and represent compiles the
# alphabets and the ring alone: which of the three each case of
# _DEFERRED_CASES loads, and the representation suite besides.
_FRESH_SCHEME = _FRESH_MAIN.replace(
    '{"numpy", "mpmath"}',
    '{"scheme_spectra.composition", "scheme_spectra.cyclotomic", "scheme_spectra.groups"}',
)

_ALL = "scheme_spectra.composition,scheme_spectra.cyclotomic,scheme_spectra.groups"
_ALPHABETS = "scheme_spectra.cyclotomic,scheme_spectra.groups"
_SCHEME_LOADED = {
    "spectrum-balanced-z3": _ALL,
    "bounds-rational-composition": _ALL,
    "probe": _ALL,
    "table-1.3": _ALL,
    "verify-reciprocity": _ALL,
    "verify-eigenvalues": _ALL,
    "represent": _ALPHABETS,
    # the alphabet is made before the sample is checked
    "represent-vacuous-sample": _ALPHABETS,
    "bounds-irrational-composition": _ALL,
}


@pytest.mark.parametrize("argv, loads", [
    *(pytest.param(case.values[0], _SCHEME_LOADED.get(case.id, ""), id=case.id)
      for case in _DEFERRED_CASES),
    pytest.param(("verify", "--suite", "representations", "--max-n", "2"), _ALL,
                 id="verify-representations"),
])
def test_only_the_composition_paths_compile_the_composition_scheme(argv, loads, tmp_path):
    proc = fresh_python("-c", _FRESH_SCHEME, *argv, cwd=tmp_path)
    assert proc.stderr.splitlines()[-1] == loads


# Hamming reports, certificates, spectra and Hoffman bounds first, then the
# composition calls: which layers each half has loaded.
_LIBRARY_CALLS = """
import sys
import scheme_spectra as ss
def loaded(*names):
    print(sorted({"scheme_spectra." + name for name in names} & set(sys.modules)))
ss.bound_report(ss.HammingGraphSpec(12, 3, 9))
ss.check_lp_solution(ss.lp_two_support(12, 3, 9))
ss.hamming_spectrum(ss.HammingGraphSpec(12, 3, 9)).to_json()
ss.hoffman_bound(ss.hamming_spectrum(ss.HammingGraphSpec(12, 3, 9)))
loaded("groups", "composition", "cyclotomic")
ss.bound_report(ss.CompositionGraphSpec(ss.cyclic(3), 6, (2, 2, 2)))
ss.composition_spectrum(ss.CompositionGraphSpec(ss.cyclic(3), 6, (3, 2, 1)))
ss.conjecture_probe(3, 6)
loaded("groups", "composition", "cyclotomic")
print(sorted({"numpy", "scheme_spectra.representation"} & set(sys.modules)))
"""


def test_spectra_reports_and_probes_load_neither_numpy_nor_the_representation_layer():
    proc = fresh_python("-c", _LIBRARY_CALLS)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[]",
        "['scheme_spectra.composition', 'scheme_spectra.cyclotomic', 'scheme_spectra.groups']",
        "[]",
    ]


# every name the package exported when it imported the representation layer
# eagerly; the cyclotomic ring's, the alphabets', the composition scheme's and
# the representation layer's are now read from them on first access
_EXPORTED = """
BadLabel BoundReport Composition CompositionGraphSpec CycInt CyclicGroup DivisibilityError
DomainError FiniteField GroupSpec HammingGraphSpec Infeasible IrrationalEigenvalue LPSolution
NoNegativeEigenvalue NonRealEigenvalue NotFound NotOrthogonal OrderMismatch ProbeVerdict
RangeError SchemeSpectraError SizeExceeded SpecMismatch Spectrum SpectrumEntry SumMismatch
UnsupportedSize all_words binom bound_report char_value check_lp_solution comp
composition_spectrum conjecture_probe cyclic cyclotomic_polynomial default_modulus
eigenvector_check entropy_q enumerate_compositions enumerate_shell finite_field
first_nonpositive first_root_ratio gen_kraw gen_kraw_circulant hamming_spectrum hoffman_bound
index_word kraw kraw_column lp_two_support max_eigenvalue min_eigenvalue multinom
multiplicity_ratio projector_identity_check shell_size trace_identity_check weight word_add
word_char_exponent word_char_value word_index word_neg word_sub zero_shell_predicate
Representation build_representation hadamard_representation representation_seed
verify_representation
""".split()
# name -> (the module that defines it, the modules that held it before and
# still forward it)
_HOMES = {
    **dict.fromkeys(("CycInt", "cyclotomic_polynomial"), ("cyclotomic", ("exactnum",))),
    **dict.fromkeys(
        """Composition CyclicGroup FiniteField GroupSpec cyclic default_modulus
        enumerate_compositions finite_field index_word""".split(),
        ("groups", ()),
    ),
    **dict.fromkeys(
        """all_words char_value comp enumerate_shell shell_size weight word_add
        word_char_exponent word_char_value word_index word_neg word_sub""".split(),
        ("oracles", ("groups",)),
    ),
    **dict.fromkeys(("gen_kraw", "gen_kraw_circulant", "zero_shell_predicate"),
                    ("oracles", ("composition", "krawtchouk"))),
    "eigenvector_check": ("oracles", ("composition", "schemes")),
    "projector_identity_check": ("oracles", ("schemes",)),
    **dict.fromkeys(("CompositionGraphSpec", "composition_spectrum"), ("composition", ("schemes",))),
    **dict.fromkeys(("ProbeVerdict", "conjecture_probe"), ("composition", ("bounds",))),
    **dict.fromkeys(_EXPORTED[-5:], ("representation", ("bounds",))),
}
_MOVED = [name for name in _EXPORTED if name in _HOMES]
# moved caps and private helpers, which no old module forwards: a patch there
# would change nothing that the new module reads
_NOT_FORWARDED = [
    ("exactnum", name) for name in (
        "_exact_poly_div", "_reduction_rows", "_fold_table", "_cos_table", "_sign_bits",
    )
] + [
    ("bounds", name) for name in (
        "REPRESENTATION_MAX_ROWS", "REPRESENTATION_MAX_CELLS", "_BLOCK_BYTES", "_CHUNK_ENTRIES",
        "_shell_indices", "_failing_rows", "_check_sample", "_composition_report",
        "_balanced_shells", "_read_out",
    )
] + [
    ("krawtchouk", name) for name in (
        "CIRCULANT_MAX_Q", "BALANCED_MAX_WORK", "_expand", "_successors", "_colex_shells",
        "_read_out", "_group_determinant", "_balanced_shells", "_character_sum",
    )
] + [
    ("schemes", name) for name in (
        "COMPOSITION_MAX_WORK", "_shell_labels", "_composition_degree", "_check_expansion_work",
        "_translates", "_read_out", "_colex_shells",
    )
]

_LAZY_NAMES = """
import importlib, json, sys
import scheme_spectra as ss
names, homes, hidden = sys.argv[1].split(), json.loads(sys.argv[2]), json.loads(sys.argv[3])
layers = [
    "scheme_spectra." + name
    for name in ("composition", "cyclotomic", "groups", "representation")
]
out = {
    "stored_before": [name for name in homes if name in vars(ss)],
    "listed": [name for name in names if name in dir(ss) and name in ss.__all__],
    "loaded_by_dir": [layer for layer in layers if layer in sys.modules],
    "groups_listed": "groups" in dir(ss) and "groups" in ss.__all__,
}
for name in names:
    exec(f"from scheme_spectra import {name}")
out["loaded"] = [layer for layer in layers if layer in sys.modules]
module = lambda name: importlib.import_module("scheme_spectra." + name)
out["shared"] = [
    name for name, (home, olds) in homes.items()
    if getattr(ss, name) is getattr(module(home), name)
    and all(getattr(module(old), name) is getattr(ss, name) for old in olds)
]
out["stored_after"] = [name for name in homes if name in vars(ss)]
out["groups_module"] = ss.groups is sys.modules["scheme_spectra.groups"]
out["forwards"] = [f"{old}.{name}" for old, name in hidden if hasattr(module(old), name)]
print(json.dumps(out))
"""


def test_every_exported_name_resolves_once_and_lazily():
    homes = {name: _HOMES[name] for name in _MOVED}
    proc = fresh_python(
        "-c", _LAZY_NAMES, " ".join(_EXPORTED), json.dumps(homes), json.dumps(_NOT_FORWARDED)
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "stored_before": [],
        "listed": _EXPORTED,
        "loaded_by_dir": [],
        "groups_listed": True,
        "loaded": [
            "scheme_spectra.composition",
            "scheme_spectra.cyclotomic",
            "scheme_spectra.groups",
            "scheme_spectra.representation",
        ],
        "shared": _MOVED,
        "stored_after": _MOVED,
        "groups_module": True,
        "forwards": [],
    }


_OLD_MODULES = ("exactnum", "krawtchouk", "schemes", "bounds")

# each old module asked, with nothing loaded, for every moved public name that
# it never held, and then probed for __path__ as the import system probes a
# submodule: what each raised, and which layers were loaded after it all
_NOT_HELD = """
import importlib, json, sys
import scheme_spectra
raised = []
for old, name in json.loads(sys.argv[1]):
    try:
        getattr(importlib.import_module("scheme_spectra." + old), name)
    except AttributeError as exc:
        raised.append(str(exc))
probes = [hasattr(importlib.import_module("scheme_spectra." + old), "__path__")
          for old in json.loads(sys.argv[2])]
layers = ("composition", "cyclotomic", "groups", "representation")
loaded = [name for name in layers if "scheme_spectra." + name in sys.modules]
print(json.dumps({"raised": raised, "probes": probes, "loaded": loaded}))
"""


def test_an_old_module_refuses_the_moved_names_it_never_held():
    asked = [
        (old, name) for old in _OLD_MODULES for name in _MOVED if old not in _HOMES[name][1]
    ]
    proc = fresh_python("-c", _NOT_HELD, json.dumps(asked), json.dumps(_OLD_MODULES))
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout)
    assert out["raised"] == [
        f"module 'scheme_spectra.{old}' has no attribute {name!r}" for old, name in asked
    ]
    for old, name in [("schemes", "gen_kraw"), ("krawtchouk", "composition_spectrum"),
                      ("exactnum", "build_representation"), ("bounds", "CycInt"),
                      ("krawtchouk", "Composition")]:
        assert (old, name) in asked
    assert out["probes"] == [False] * 4
    assert out["loaded"] == []


# one forwarded name imported from each old module in a fresh process: which
# layers the import loads, the name's home and what that home imports
_FROM_OLD = """
import sys
exec(f"from scheme_spectra.{sys.argv[1]} import {sys.argv[2]} as value")
import scheme_spectra as ss
assert value is getattr(ss, sys.argv[2])
layers = ("composition", "cyclotomic", "groups", "oracles", "representation")
print(",".join(name for name in layers if "scheme_spectra." + name in sys.modules))
"""


@pytest.mark.parametrize("old, name, loads", [
    ("exactnum", "CycInt", "cyclotomic"),
    # the oracles import the alphabets and the composition scheme when a
    # route runs, not when they load
    ("krawtchouk", "gen_kraw", "oracles"),
    ("schemes", "composition_spectrum", "composition,cyclotomic,groups"),
    ("bounds", "verify_representation", "cyclotomic,groups,representation"),
    ("composition", "gen_kraw_circulant", "composition,cyclotomic,groups,oracles"),
    ("schemes", "projector_identity_check", "oracles"),
    ("groups", "enumerate_shell", "groups,oracles"),
])
def test_a_forwarded_name_imports_from_its_old_module_alone(old, name, loads):
    assert old in _HOMES[name][1]
    proc = fresh_python("-c", _FROM_OLD, old, name)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", loads + "\n")


# The independent routes and the word layer, scheme_spectra.oracles, are
# compiled only by the suites that run them: which cases of _DEFERRED_CASES
# load it, and the representation suite besides.
_FRESH_ORACLES = _FRESH_MAIN.replace('{"numpy", "mpmath"}', '{"scheme_spectra.oracles"}')

_ORACLES_LOADED = {
    "verify-eigenvalues": "scheme_spectra.oracles",
    "verify-projectors": "scheme_spectra.oracles",
}


@pytest.mark.parametrize("argv, loads", [
    *(pytest.param(case.values[0], _ORACLES_LOADED.get(case.id, ""), id=case.id)
      for case in _DEFERRED_CASES),
    pytest.param(("verify", "--suite", "representations", "--max-n", "2"), "",
                 id="verify-representations"),
])
def test_only_the_checks_compile_the_oracles(argv, loads, tmp_path):
    proc = fresh_python("-c", _FRESH_ORACLES, *argv, cwd=tmp_path)
    assert proc.stderr.splitlines()[-1] == loads


# composition spectra, reports and probes and both kinds of representation,
# built and verified, and then one gen_kraw call: whether the oracles were
# loaded after each half
_LIBRARY_ORACLES = """
import sys
import scheme_spectra as ss
ss.bound_report(ss.CompositionGraphSpec(ss.cyclic(3), 6, (2, 2, 2)))
ss.bound_report(ss.CompositionGraphSpec(ss.finite_field(4), 4, (1, 1, 1, 1)))
ss.composition_spectrum(ss.CompositionGraphSpec(ss.cyclic(3), 6, (3, 2, 1))).to_json()
ss.conjecture_probe(3, 6)
ss.verify_representation(ss.build_representation(ss.lp_two_support(4, 2, 2), ss.cyclic(2)),
                         ss.HammingGraphSpec(4, 2, 2))
ss.verify_representation(ss.hadamard_representation(ss.cyclic(2), 4),
                         ss.CompositionGraphSpec(ss.cyclic(2), 4, (2, 2)))
print("scheme_spectra.oracles" in sys.modules)
ss.gen_kraw(ss.cyclic(3), 3, (1, 1, 1), (2, 1, 0))
print("scheme_spectra.oracles" in sys.modules)
"""


def test_a_check_loads_the_oracles_and_nothing_else_does():
    proc = fresh_python("-c", _LIBRARY_ORACLES)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\nTrue\n")


# the two modules that now forward oracles, asked for the moved public names
# that they never held (the alphabets for every name from elsewhere, the
# composition scheme for the oracles' and the representation layer's, as it
# imports the alphabets' and the ring's), and each module that held a route
# or a word helper asked for the caps and private helpers that moved with
# it: what each raised, and whether that loaded the oracles
_CAPS_LEFT_BEHIND = [
    ("composition", name) for name in (
        "CIRCULANT_MAX_Q", "_character_sum", "_perm_sign", "_circulant_determinant",
        "_translates",
    )
] + [
    ("krawtchouk", "_perm_sign"), ("schemes", "PROJECTOR_MAX_VERTICES"),
    ("groups", "_weight_words"), ("groups", "_comp_words"), ("groups", "CIRCULANT_MAX_Q"),
]

_REFUSED = """
import importlib, json, sys
import scheme_spectra
raised = []
for old, name in json.loads(sys.argv[1]):
    try:
        getattr(importlib.import_module("scheme_spectra." + old), name)
    except AttributeError as exc:
        raised.append(str(exc))
print(json.dumps({"raised": raised, "oracles": "scheme_spectra.oracles" in sys.modules}))
"""


def test_caps_and_names_never_held_are_refused_by_the_module_asked():
    asked = [
        ("composition", name) for name in _MOVED
        if _HOMES[name][0] in ("oracles", "representation") and "composition" not in _HOMES[name][1]
    ] + [
        ("groups", name) for name in _MOVED
        if _HOMES[name][0] != "groups" and "groups" not in _HOMES[name][1]
    ] + _CAPS_LEFT_BEHIND
    for old, name in [("groups", "gen_kraw"), ("composition", "weight"),
                      ("composition", "projector_identity_check"),
                      ("groups", "eigenvector_check"), ("groups", "CycInt")]:
        assert (old, name) in asked
    proc = fresh_python("-c", _REFUSED, json.dumps(asked))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "raised": [f"module 'scheme_spectra.{old}' has no attribute {name!r}"
                   for old, name in asked],
        "oracles": False,
    }


# Irrational eigenvalues are ordered without mpmath: with the package made
# unimportable, a report that ranks them and one irrational least eigenvalue
# come out as they do in this process.
_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from scheme_spectra import Composition, CompositionGraphSpec, cli, composition_spectrum
from scheme_spectra import cyclic, min_eigenvalue
code = cli.main(sys.argv[1:])
spec = CompositionGraphSpec(cyclic(5), 4, Composition((2, 1, 0, 0, 1)))
print(repr(min_eigenvalue(composition_spectrum(spec))))
sys.exit(code)
"""


def test_irrational_eigenvalues_are_ordered_without_mpmath(capsys):
    from scheme_spectra import Composition, CompositionGraphSpec, composition_spectrum
    from scheme_spectra import cyclic, min_eigenvalue

    argv = ("bounds", "--family", "composition", "--q", "5", "--n", "5", "--comp", "3,1,0,0,1")
    proc = fresh_python("-c", _WITHOUT_MPMATH, *argv)
    code, out, err = run(capsys, *argv)
    spec = CompositionGraphSpec(cyclic(5), 4, Composition((2, 1, 0, 0, 1)))
    least = min_eigenvalue(composition_spectrum(spec))
    assert least[0].as_integer() is None
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + f"{least!r}\n", err)


# no BLAS thread pool: every matrix product the library makes is an integer
# one, so the library has numpy's OpenBLAS start single-threaded, whether
# the CLI or a caller of the library loads it, and leaves the environment
# as it found it

# the variables that size the pool when OpenBLAS loads
_POOL_SIZES = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS",
)

_BLAS_STATE = """
tasks = "/proc/self/task"
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "setting": os.environ.get("OPENBLAS_NUM_THREADS"),
    "environ_unchanged": dict(os.environ) == before,
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""

_BLAS_AFTER_MAIN = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from scheme_spectra import cli
before = dict(os.environ)
code = cli.main(sys.argv[2:])
""" + _BLAS_STATE + """
sys.exit(code)
"""

# a library call, or for reference numpy imported alone
_BLAS_AFTER_CALL = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import scheme_spectra as ss
before = dict(os.environ)
if sys.argv[2] == "build":
    ss.build_representation(ss.lp_two_support(4, 2, 2), ss.cyclic(2))
elif sys.argv[2] == "projectors":
    assert ss.projector_identity_check(3, 2)
elif sys.argv[2] == "racing":
    import threading, time
    from scheme_spectra._numpy import load_numpy
    sys.setswitchinterval(1e-6)
    gate, loaded = threading.Barrier(8), []
    def first_call():
        gate.wait()
        loaded.append(load_numpy())
    workers = [threading.Thread(target=first_call) for _ in range(8)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers) and len(loaded) == 8
    # a joined thread can linger in /proc/self/task while it exits; a pool
    # thread would stay
    deadline = time.monotonic() + 10
    while len(os.listdir("/proc/self/task")) > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
else:
    import numpy
""" + _BLAS_STATE


def _pool_env(preset):
    # the test's environment with none of the pool variables but ``preset``
    env = {k: v for k, v in os.environ.items() if k not in _POOL_SIZES}
    env["PYTHONPATH"] = str(SRC)
    env.update(preset)
    return env


def state_after_main(tmp_path, order, preset=None, argv=None):
    # main runs a small represent, or ``argv``, in a fresh interpreter whose
    # environment holds OPENBLAS_NUM_THREADS only as ``preset``
    env = _pool_env({} if preset is None else {"OPENBLAS_NUM_THREADS": preset})
    if argv is None:
        argv = ("represent", "--n", "4", "--q", "2", "--d", "2", "--out", str(tmp_path / "rep.csv"))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_AFTER_MAIN, order, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    *out, state = proc.stdout.splitlines()
    if argv[0] == "represent":
        assert json.loads(out[0])["verified"] is True
    return json.loads(state)


def state_after_call(call, order="library-first", preset=None):
    # ``call`` in a fresh interpreter whose environment holds the pool
    # variables only as ``preset``, a {name: value} dict
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_AFTER_CALL, order, call],
        env=_pool_env(preset or {}), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return json.loads(proc.stdout)


def _need_tasks():
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")


def test_a_cli_process_loads_numpy_without_a_blas_thread_pool(tmp_path):
    _need_tasks()
    state = state_after_main(tmp_path, "cli-first")
    assert state["numpy"] and state["threads"] == 1
    assert state["environ_unchanged"]


@pytest.mark.parametrize("suite", ["representations", "projectors", "all"])
def test_every_verify_suite_that_loads_numpy_starts_no_blas_thread_pool(tmp_path, suite):
    _need_tasks()
    state = state_after_main(tmp_path, "cli-first", argv=("verify", "--suite", suite, "--max-n", "2"))
    assert state["numpy"] and state["threads"] == 1
    assert state["setting"] is None and state["environ_unchanged"]


def test_a_preset_blas_thread_count_is_left_as_it_is(tmp_path):
    state = state_after_main(tmp_path, "cli-first", preset="2")
    assert state["numpy"] and state["setting"] == "2" and state["environ_unchanged"]


def test_once_numpy_is_loaded_the_cli_leaves_the_environment_alone(tmp_path):
    # its pool exists already; setting the variable would only leak into
    # the caller's environment
    state = state_after_main(tmp_path, "numpy-first")
    assert state["numpy"] and state["setting"] is None and state["environ_unchanged"]


@pytest.mark.parametrize("call", ["build", "projectors", "racing"])
def test_a_library_call_loads_numpy_without_a_blas_thread_pool(call):
    # build_representation of H(4,2,2), the dense projector check of the
    # oracles, and eight threads' first calls at once, made directly rather
    # than through cli.main
    _need_tasks()
    state = state_after_call(call)
    assert state["numpy"] and state["threads"] == 1
    assert state["setting"] is None and state["environ_unchanged"]


@pytest.mark.parametrize("name", _POOL_SIZES)
@pytest.mark.parametrize("call", ["build", "projectors"])
def test_a_preset_pool_size_is_left_set_and_honoured(call, name):
    # the library's numpy starts the pool that numpy imported alone starts
    # under the same setting: two threads on a host with two cores or more
    _need_tasks()
    preset = {name: "2"}
    state = state_after_call(call, preset=preset)
    alone = state_after_call("numpy", preset=preset)
    assert state["numpy"] and state["environ_unchanged"]
    assert state["threads"] == alone["threads"]
    if len(os.sched_getaffinity(0)) >= 2:
        assert state["threads"] == 2


@pytest.mark.parametrize("call", ["build", "projectors"])
def test_once_numpy_is_loaded_a_library_call_leaves_everything_alone(call):
    _need_tasks()
    state = state_after_call(call, order="numpy-first")
    alone = state_after_call("numpy", order="numpy-first")
    assert state["numpy"] and state["setting"] is None and state["environ_unchanged"]
    assert state["threads"] == alone["threads"]
