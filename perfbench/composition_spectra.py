"""composition-spectra: exact spectra of composition graphs over small alphabets.

The per-shell extraction DP (``gen_kraw``), ``CycInt`` normalisation and the
precision path of ``min_eigenvalue`` dominate; there is no ``kraw`` and no
numpy.  Groups: Z_3 (n <= 24), Z_4 (n <= 12), Z_5 (n <= 10), Z_6 (n <= 8) and
GF(4) (n <= 12), sized so that every job takes well under two seconds.

Job kinds: ``conjecture_probe`` on balanced cyclic graphs, ``bound_report``
on balanced field graphs and on unbalanced negation-closed generators (the
Z_5 ones can have irrational spectra, which reach ``CycInt.embed``), and
``composition_spectrum(...).to_json()`` on directed generators.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import mpmath

import scheme_spectra as ss

from common import (
    close,
    compositions_colex,
    eigen_complex,
    expect,
    frac_str,
    multinomial,
    normalized,
)

NAME = "composition-spectra"
TRACE_ROUNDS = 1
IN_PROCESS = True  # jobs run in this interpreter, not in child processes
ROUND_S = 7.0  # nominal seconds per round on the 2-core reference host
BRUTE_MAX_SHELL = 20000  # brute-force character sums only on shells this small
BRUTE_SHELLS = 2

# One job per slot and round.  A slot fixes the kind, the group and n, and
# for graph jobs the multiset of the generating composition's counts; the
# seed arranges the counts over the group elements (respecting negation for
# the undirected kinds) and orders the round.  The extraction DP's cost
# depends on the counts, not on where they sit, so every round of every seed
# holds the same job sizes.  A probe's template is (n, q).
SLOTS = (
    ("probe", "cyclic", None, (24, 3)),
    ("probe", "cyclic", None, (10, 5)),
    ("probe", "cyclic", None, (12, 3)),
    ("probe", "cyclic", None, (18, 3)),
    ("probe", "cyclic", None, (8, 4)),
    ("probe", "cyclic", None, (5, 5)),
    ("bound", "field", 4, (8, (2, 2, 2, 2))),
    ("bound", "field", 4, (12, (3, 3, 3, 3))),
    ("bound", "cyclic", 5, (8, (2, 2, 1))),
    ("bound", "cyclic", 5, (9, (1, 3, 1))),
    ("bound", "cyclic", 6, (8, (3, 2, 0, 1))),
    ("bound", "cyclic", 4, (12, (4, 3, 2))),
    ("bound", "cyclic", 3, (21, (9, 6))),
    ("bound", "cyclic", 3, (21, (5, 8))),
    ("bound", "field", 4, (10, (4, 3, 2, 1))),
    ("spectrum", "cyclic", 3, (21, (5, 12, 4))),
    ("spectrum", "cyclic", 4, (12, (5, 4, 2, 1))),
    ("spectrum", "cyclic", 5, (9, (3, 2, 2, 1, 1))),
    ("spectrum", "cyclic", 6, (8, (3, 2, 1, 1, 1, 0))),
)


def _group(kind: str, q: int):
    return ss.finite_field(q) if kind == "field" else ss.cyclic(q)


def _negation_closed(group: str, q: int, dcomp) -> bool:
    if group == "field":  # characteristic 2: every element is its own negative
        return True
    return all(dcomp[g] == dcomp[-g % q] for g in range(q))


def _arrange(rng: random.Random, kind: str, group: str, q: int, counts: tuple) -> tuple:
    """Place the template's counts on the group elements.

    Undirected cyclic templates are (count of 0, then one count per pair
    {g, -g}, g = 1..q//2); every other template lists one count per element.
    """
    if kind == "spectrum":
        while True:
            dcomp = tuple(rng.sample(counts, q))
            if not _negation_closed(group, q, dcomp):
                return dcomp
    if group == "field":
        return tuple(rng.sample(counts, q))
    zero, pairs = counts[0], list(counts[1:])
    if q % 2 == 0:  # q/2 is its own negative and keeps its place
        pairs, middle = pairs[:-1], pairs[-1]
    rng.shuffle(pairs)
    dcomp = [zero] + [0] * (q - 1)
    for g, c in enumerate(pairs, start=1):
        dcomp[g] = dcomp[q - g] = c
    if q % 2 == 0:
        dcomp[q // 2] = middle
    return tuple(dcomp)


def job(kind: str, group: str, q: int, n: int, dcomp=None) -> dict:
    return {"kind": kind, "group": group, "q": q, "n": n, "dcomp": dcomp}


def _slot_job(rng, slot) -> dict:
    kind, group, q, (n, counts) = slot
    if kind == "probe":
        return job("probe", group, counts, n)
    return job(kind, group, q, n, _arrange(rng, kind, group, q, counts))


def rounds(seed: int):
    rng = random.Random(seed)
    while True:
        jobs = [_slot_job(rng, slot) for slot in SLOTS]
        rng.shuffle(jobs)
        yield jobs


def warmup() -> list[dict]:
    return [
        job("probe", "cyclic", 3, 6),
        job("bound", "field", 4, 4, (1, 1, 1, 1)),
        job("bound", "cyclic", 5, 6, (2, 1, 1, 1, 1)),
        job("bound", "cyclic", 6, 4, (2, 1, 0, 0, 0, 1)),
        job("spectrum", "cyclic", 4, 4, (1, 2, 1, 0)),
    ]


def spec_of(job: dict):
    group = _group(job["group"], job["q"])
    return ss.CompositionGraphSpec(group, job["n"], ss.Composition(tuple(job["dcomp"])))


def run(job: dict, ctx=None) -> tuple[float, dict]:
    start = time.perf_counter()
    if job["kind"] == "probe":
        out = ss.conjecture_probe(job["q"], job["n"]).to_json()
    elif job["kind"] == "bound":
        out = ss.bound_report(spec_of(job)).to_json()
    else:
        out = ss.composition_spectrum(spec_of(job)).to_json()
    return time.perf_counter() - start, out


# -- oracle ---------------------------------------------------------------


def _brute_value(group, n: int, dcomp, label) -> mpmath.mpc:
    """Eigenvalue on shell ``label`` as a literal character sum over the
    generating shell: sum of phi_x(y), x a word of composition ``label``."""
    x = tuple(g for g, c in enumerate(label) for _ in range(c))
    m = group.char_order
    counts = [0] * m
    for y in ss.enumerate_shell(group, n, ss.Composition(tuple(dcomp))):
        counts[ss.word_char_exponent(group, x, y)] += 1
    return eigen_complex({"order": m, "coeffs": counts})


def check_spectrum(job: dict, spectrum: dict, rng: random.Random) -> None:
    """Shell labels, multiplicities, sum_j m_j |lambda_j|^2 = q^n * degree,
    and brute-force character sums on sampled shells."""
    q, n, dcomp = job["q"], job["n"], tuple(job["dcomp"])
    labels = compositions_colex(q, n)
    entries = spectrum["entries"]
    expect([tuple(e["shell"]) for e in entries] == labels, "shell labels or order differ")
    expect(
        all(e["multiplicity"] == str(multinomial(e["shell"])) for e in entries),
        "a multiplicity differs from the multinomial shell size",
    )
    degree = multinomial(dcomp)
    expect(spectrum["degree"] == str(degree), "degree differs")
    expect(spectrum["vertices"] == str(q**n), "vertex count differs")
    with mpmath.workdps(60):
        energy = mpmath.fsum(
            int(e["multiplicity"]) * abs(eigen_complex(e["eigenvalue"])) ** 2 for e in entries
        )
        expect(close(energy, mpmath.mpf(q**n * degree)), "sum m |lambda|^2 != q^n * degree")
        if degree <= BRUTE_MAX_SHELL:
            group = _group(job["group"], q)
            for e in rng.sample(entries, BRUTE_SHELLS):
                brute = _brute_value(group, n, dcomp, e["shell"])
                expect(
                    close(brute, eigen_complex(e["eigenvalue"])),
                    f"brute character sum differs on shell {e['shell']}",
                )


def expected_composition_report(job: dict, spectrum: dict) -> dict:
    """The bound report implied by a checked spectrum: Hoffman from the least
    eigenvalue (found numerically at 60 digits), Hadamard n when balanced."""
    q, n, dcomp = job["q"], job["n"], tuple(job["dcomp"])
    balanced = n % q == 0 and dcomp == (n // q,) * q
    diagnostics: dict = {"balanced": balanced, "undirected": True}
    lower, upper = [], []
    values = [e["eigenvalue"] for e in spectrum["entries"]]
    least = min(values, key=lambda v: eigen_complex(v).real)
    if not isinstance(least, int):
        diagnostics["hoffman_unavailable"] = "IrrationalEigenvalue"
    elif least >= 0:
        diagnostics["hoffman_unavailable"] = "NoNegativeEigenvalue"
    else:
        hoffman = 1 - Fraction(multinomial(dcomp), least)
        lower.append({"value": frac_str(hoffman), "method": "hoffman"})
    if balanced:
        upper.append({"value": str(n), "method": "hadamard-character"})
        if job["group"] == "field" and _is_prime_power(n):
            diagnostics["prime_power_pair"] = True
    best_lower = max((Fraction(v["value"]) for v in lower), default=None)
    best_upper = min((Fraction(v["value"]) for v in upper), default=None)
    exact = best_lower if best_lower is not None and best_lower == best_upper else None
    return {
        "graph": normalized(spec_of(job).describe()),
        "lower": lower,
        "upper": upper,
        "exact": None if exact is None else frac_str(exact),
        "diagnostics": diagnostics,
    }


def _is_prime_power(v: int) -> bool:
    p = next(p for p in range(2, v + 1) if v % p == 0)
    while v % p == 0:
        v //= p
    return v == 1


def expected_probe(q: int, n: int) -> dict:
    """The probe verdict from circulant-route values on every shell."""
    labels = compositions_colex(q, n)
    values = [ss.gen_kraw_circulant(q, n, ss.Composition(lab)) for lab in labels]
    degree = multinomial((n // q,) * q)
    expect(
        sum(multinomial(lab) * v * v for lab, v in zip(labels, values)) == q**n * degree,
        f"trace identity fails on circulant values for Z_{q}, n={n}",
    )
    minimum = min(values)
    target = Fraction(-degree, n - 1)
    pattern = [n - 2] + [0] * (q - 1)
    pattern[1] += 1
    pattern[q - 1] += 1
    return {
        "verdict": "holds" if minimum == target else "fails",
        "q": q,
        "n": n,
        "minimum": str(minimum),
        "conjectured": frac_str(target),
        "pattern_shell": pattern,
        "achieving_shells": [list(lab) for lab, v in zip(labels, values) if v == minimum],
    }


class Oracle:
    """Checks a job's output; per distinct input the expected value is
    built once and cached, so repeated inputs cost one comparison."""

    def __init__(self) -> None:
        self._expected: dict[tuple, dict] = {}
        self.irrational: dict[tuple, bool] = {}

    @staticmethod
    def key(job: dict) -> tuple:
        return (job["kind"], job["group"], job["q"], job["n"], tuple(job["dcomp"] or ()))

    def check(self, job: dict, output: dict) -> None:
        key = self.key(job)
        rng = random.Random(repr(key))
        if job["kind"] == "probe":
            if key not in self._expected:
                self._expected[key] = expected_probe(job["q"], job["n"])
                self.irrational[key] = False
            expect(output == self._expected[key], f"probe verdict differs for {key}")
            return
        if job["kind"] == "spectrum":
            check_spectrum(job, output, rng)
            expect(output["graph"] == normalized(spec_of(job).describe()), "graph differs")
            self.irrational[key] = any(isinstance(e["eigenvalue"], dict) for e in output["entries"])
            return
        if key not in self._expected:
            spectrum = ss.composition_spectrum(spec_of(job))
            expect(ss.trace_identity_check(spectrum) is True, f"trace identity fails for {key}")
            spectrum_json = normalized(spectrum.to_json())
            check_spectrum(job, spectrum_json, rng)
            self._expected[key] = expected_composition_report(job, spectrum_json)
            self.irrational[key] = any(
                isinstance(e["eigenvalue"], dict) for e in spectrum_json["entries"]
            )
        expect(normalized(output) == self._expected[key], f"bound report differs for {key}")


def properties(jobs: list[dict], oracle: Oracle) -> dict:
    total = len(jobs)
    kinds = ("probe", "bound", "spectrum")
    shells = [len(compositions_colex(j["q"], j["n"])) for j in jobs]
    return {
        "kind_share": {k: sum(j["kind"] == k for j in jobs) / total for k in kinds},
        "irrational_spectrum_share": sum(oracle.irrational.get(Oracle.key(j), False) for j in jobs)
        / total,
        "shells_per_job": {"mean": sum(shells) / total, "min": min(shells), "max": max(shells)},
    }
