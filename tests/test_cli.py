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
from scheme_spectra import cli, representation


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
    # computed once, where two calls per pair would make 2 N^2
    real_kraw, real_gen_kraw = cli.kraw, cli.gen_kraw
    classical, composition = {}, {}

    def counting_kraw(n, q, i, j):
        classical[q, n] = classical.get((q, n), 0) + 1
        return real_kraw(n, q, i, j)

    def counting_gen_kraw(group, n, i, j):
        key = (group.order, n)
        composition[key] = composition.get(key, 0) + 1
        return real_gen_kraw(group, n, i, j)

    monkeypatch.setattr(cli, "kraw", counting_kraw)
    monkeypatch.setattr(cli, "gen_kraw", counting_gen_kraw)
    assert run(capsys, "verify", "--suite", "reciprocity", "--max-n", "5")[0] == 0
    assert classical == {(q, n): (n + 1) ** 2 for q in (2, 3, 4, 5) for n in range(1, 6)}
    assert composition == {(q, n): comb(n + q - 1, q - 1) ** 2 for q in (2, 3) for n in range(1, 6)}
    assert sum(composition.values()) == 901


def test_a_wrong_value_fails_both_of_its_reciprocity_pairs(monkeypatch):
    # the planted value is the left-hand side of (i, j) and the right-hand
    # side of (j, i), so both ordered pairs fail, in the order they are met
    real_kraw, real_gen_kraw = cli.kraw, cli.gen_kraw

    def broken_kraw(n, q, i, j):
        return real_kraw(n, q, i, j) + (1 if (n, q, i, j) == (3, 4, 2, 1) else 0)

    def broken_gen_kraw(group, n, i, j):
        planted = (group.order, n, tuple(i), tuple(j)) == (3, 2, (0, 1, 1), (1, 1, 0))
        return real_gen_kraw(group, n, i, j) + (1 if planted else 0)

    monkeypatch.setattr(cli, "kraw", broken_kraw)
    monkeypatch.setattr(cli, "gen_kraw", broken_gen_kraw)
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
    real_spectrum = cli.composition_spectrum

    def with_irrational_entry(spec):
        sp = real_spectrum(spec)
        if spec.group.order != 3:
            return sp
        e = sp.entries[1]
        entries = list(sp.entries)
        entries[1] = SpectrumEntry(e.label, CycInt(3, (0, 1)), e.multiplicity)
        return Spectrum(sp.graph, tuple(entries), sp.regular_degree, sp.vertex_count)

    monkeypatch.setattr(cli, "composition_spectrum", with_irrational_entry)
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


_LIBRARY_CALLS = """
import sys
import scheme_spectra as ss
ss.bound_report(ss.HammingGraphSpec(12, 3, 9))
ss.bound_report(ss.CompositionGraphSpec(ss.cyclic(3), 6, (2, 2, 2)))
ss.composition_spectrum(ss.CompositionGraphSpec(ss.cyclic(3), 6, (3, 2, 1)))
ss.conjecture_probe(3, 6)
print(sorted({"numpy", "scheme_spectra.representation"} & set(sys.modules)))
"""


def test_spectra_reports_and_probes_load_neither_numpy_nor_the_representation_layer():
    proc = fresh_python("-c", _LIBRARY_CALLS)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# every name the package exported when it imported the representation layer
# eagerly; the last five are now read from it on first access
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
_MOVED = _EXPORTED[-5:]

_LAZY_NAMES = """
import json, sys
import scheme_spectra as ss
from scheme_spectra import bounds
names, moved = sys.argv[1].split(), sys.argv[2].split()
layer = "scheme_spectra.representation"
out = {
    "stored_before": [name for name in moved if name in vars(ss)],
    "listed": [name for name in names if name in dir(ss) and name in ss.__all__],
    "loaded_by_dir": layer in sys.modules,
}
for name in names:
    exec(f"from scheme_spectra import {name}")
out["loaded"] = layer in sys.modules
representation = sys.modules[layer]
out["shared"] = [
    name for name in moved
    if getattr(ss, name) is getattr(bounds, name) is getattr(representation, name)
]
out["stored_after"] = [name for name in moved if name in vars(ss)]
out["bounds_forwards"] = [
    name for name in ("REPRESENTATION_MAX_ROWS", "REPRESENTATION_MAX_CELLS", "_BLOCK_BYTES",
                      "_CHUNK_ENTRIES", "_shell_indices", "_failing_rows", "_check_sample")
    if hasattr(bounds, name)
]
print(json.dumps(out))
"""


def test_every_exported_name_resolves_once_and_lazily():
    proc = fresh_python("-c", _LAZY_NAMES, " ".join(_EXPORTED), " ".join(_MOVED))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "stored_before": [],
        "listed": _EXPORTED,
        "loaded_by_dir": False,
        "loaded": True,
        "shared": _MOVED,
        "stored_after": _MOVED,
        # a patch there would change nothing that the layer reads
        "bounds_forwards": [],
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
# one, so the CLI has numpy's OpenBLAS start single-threaded

_BLAS_AFTER_MAIN = """
import json, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
from scheme_spectra import cli
before = dict(os.environ)
code = cli.main(sys.argv[2:])
tasks = "/proc/self/task"
print(json.dumps({
    "numpy": "numpy" in sys.modules,
    "setting": os.environ.get("OPENBLAS_NUM_THREADS"),
    "environ_unchanged": dict(os.environ) == before,
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
sys.exit(code)
"""


def state_after_main(tmp_path, order, preset=None):
    # main runs a small represent in a fresh interpreter whose environment
    # holds OPENBLAS_NUM_THREADS only as ``preset``
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    argv = ("represent", "--n", "4", "--q", "2", "--d", "2", "--out", str(tmp_path / "rep.csv"))
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_AFTER_MAIN, order, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    summary, state = proc.stdout.splitlines()
    assert json.loads(summary)["verified"] is True
    return json.loads(state)


def test_a_cli_process_loads_numpy_without_a_blas_thread_pool(tmp_path):
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    state = state_after_main(tmp_path, "cli-first")
    assert state["numpy"] and state["threads"] == 1
    assert state["setting"] == "1"


def test_a_preset_blas_thread_count_is_left_as_it_is(tmp_path):
    state = state_after_main(tmp_path, "cli-first", preset="2")
    assert state["numpy"] and state["setting"] == "2" and state["environ_unchanged"]


def test_once_numpy_is_loaded_the_cli_leaves_the_environment_alone(tmp_path):
    # its pool exists already; setting the variable would only leak into
    # the caller's environment
    state = state_after_main(tmp_path, "numpy-first")
    assert state["numpy"] and state["setting"] is None and state["environ_unchanged"]
