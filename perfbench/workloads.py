"""The four benchmark workloads, their seeded inputs and their oracles.

Each workload turns a seed into a fixed list of operations.  An operation
runs one call into contactcalc (or one CLI subprocess) and its oracle checks
the output against expectations derived here, without the code under test:
a FAIL line, a wrong margin, a wrong word or a wrong byte counts as a failed
operation.  The benchmark cycles through the list in a closed loop with one
client.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_out")

NAMES = ("verify_numeric", "contact_highdim", "scenario_symbolic", "cli_cold")


@dataclass
class Op:
    """One operation: ``run`` returns an output and ``check`` judges it."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Prepared:
    ops: list[Op]
    params: dict
    warmup: list[Op]
    child_rss_kb: list[int] = field(default_factory=list)
    cleanup: Callable[[], None] = lambda: None
    mix: int = 0    # consecutive ops holding one of each kind; 0: all ops


def prepare(name: str, seed: int, size: str) -> Prepared:
    """Build the workload's inputs from ``seed``; ``size`` is full or tiny."""
    return _BUILDERS[name](seed, size == "tiny")


# ---------------------------------------------------------------------------
# verify_numeric
# ---------------------------------------------------------------------------

FORMS_METRICS = ("liouville_lambda_std_vs_radial/2", "liouville_lambda_can_vs_p_dp",
                 "reeb_dz_plus_beta_vs_dz", "hamiltonian_f_k_vs_closed_form",
                 "contact_margin_dz_plus_lambda_std", "d_lambda_std_vs_closed_form")


def twist_metrics(n: int) -> tuple[str, ...]:
    return (f"twist_pullback_minus_dlambda_can_n{n}",
            f"twist_zero_section_antipodal_n{n}",
            f"twist_identity_outside_eps_n{n}",
            f"twist_two_path_consistency_n{n}",
            f"isotopy_phi1_vs_tau_squared_n{n}",
            f"boundary_displacement_probe_phi_n{n}")


def report_ok(text: str, metrics: tuple[str, ...]) -> bool:
    """Every line is PASS and the lines are exactly the expected metrics."""
    rows = [line.split("\t") for line in text.splitlines()]
    return (tuple(r[0] for r in rows) == metrics
            and all(len(r) == 4 and r[3] == "PASS" for r in rows))


def _verify_numeric(seed: int, tiny: bool) -> Prepared:
    from contactcalc import verify

    cycles = 1 if tiny else 8
    seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, size=3 * cycles)
    ops = []
    for c in range(cycles):
        s1, s2, s3 = (int(x) for x in seeds[3 * c:3 * c + 3])
        ops.append(Op(f"forms/{s1}",
                      lambda s=s1: verify.render_report(verify.verify_forms(s, samples=25)),
                      lambda out: report_ok(out, FORMS_METRICS)))
        for n, s in ((2, s2), (6, s3)):
            ops.append(Op(f"twist{n}/{s}",
                          lambda n=n, s=s: verify.render_report(
                              verify.verify_twist(n, s, samples=50)),
                          lambda out, n=n: report_ok(out, twist_metrics(n))))
    return Prepared(ops, {"forms_samples": 25, "twist_samples": 50,
                          "twist_n": [2, 6], "ops_per_pass": len(ops)}, ops[:3], mix=3)


# ---------------------------------------------------------------------------
# contact_highdim
# ---------------------------------------------------------------------------

MARGIN_TOL = 1e-6
# Closed-form margins: 1 for dz + lambda_std on R^{2n+1}; 1/2 for lambda_std
# on the unit sphere S^{2n+1} with the Darboux orientation, because the
# radial field r has i_r(d lambda_std) = 2 lambda_std.
EXPECTED_MARGIN = {"R": 1.0, "S": 0.5}


def _contact_highdim(seed: int, tiny: bool) -> Prepared:
    from contactcalc import charts, conditions, forms

    rng = np.random.default_rng(seed)
    batch = 1 if tiny else 8
    cases = {}
    for n in (3, 4):
        alpha = forms.dz_plus(forms.lambda_std(n))
        pts = [alpha.chart.point(rng.uniform(-1.0, 1.0, alpha.chart.dim))
               for _ in range(batch)]
        cases[f"R{2 * n + 1}"] = (alpha, pts)
        lam = forms.lambda_std(n + 1)
        sph = charts.with_constraints(
            lam.chart, [charts.unit_norm_constraint(range(2 * n + 2))],
            f"S{2 * n + 1}_xy")
        beta = forms.restrict_form(lam, sph)
        spts = []
        for _ in range(batch):
            x = rng.normal(size=2 * n + 2)
            spts.append(sph.point(x / np.linalg.norm(x)))
        cases[f"S{2 * n + 1}"] = (beta, spts)

    def op(label: str) -> Op:
        form, pts = cases[label]
        return Op(label,
                  lambda: conditions.check_contact_condition(form, pts).margin,
                  lambda margin: abs(margin - EXPECTED_MARGIN[label[0]]) <= MARGIN_TOL)

    # R9 twice per cycle, so that p50 lands inside the R9 group and p90
    # inside the S9 group, not on a boundary between two op kinds of very
    # different cost (about 2 ms at dim 7, 150 ms at dim 9).
    ops = [op(label) for label in ("R7", "S7", "R9", "S9", "R9")]
    return Prepared(ops, {"batch": batch, "cycle": [o.label for o in ops],
                          "expected_margin": dict(EXPECTED_MARGIN)},
                    ops[:4])


# ---------------------------------------------------------------------------
# scenario_symbolic
# ---------------------------------------------------------------------------

def free_reduce(letters: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Free reduction of a word given as (label, exponent) pairs."""
    out: list[list] = []
    for label, exp in letters:
        if out and out[-1][0] == label:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        elif exp:
            out.append([label, exp])
    return [(lab, e) for lab, e in out]


def word_text(letters: list[tuple[str, int]]) -> str:
    if not letters:
        return "id"
    return " ".join(lab if e == 1 else f"{lab}^{e}" for lab, e in letters)


def kirby_cover_text(page: str, spheres: list[str], q: int) -> str:
    """The serialized cover diagram, re-derived from docs/kirby_format.md."""
    dotted = sorted((f"d{j}p", f"p_{j}", f"p_{j + 1}") for j in range(1, q))
    handles = sorted((f"h{j}{c}", "surface", f"curve:{c}_{j}:+", f"curve:{c}_{j + 1}:-")
                     for j in range(1, q) for c in spheres)
    lines = (["KIRBY 1", "BASE", "DOTTED"] + ["\t".join(d) for d in dotted]
             + ["2HANDLES"] + ["\t".join(h) for h in handles]
             + ["NOTES", f"{q}-fold cyclic branched cover over the binding; page {page}"])
    return "\n".join(lines) + "\n"


@dataclass
class ScenarioCase:
    text: str
    report: str                 # the expected report, byte for byte
    files: dict[str, str]       # out= file name -> expected content
    statements: int


def generate_scenario(rng: np.random.Generator, statements: int, out_dir: str) -> ScenarioCase:
    """A scenario of about ``statements`` lines with its expected report.

    Declarations come first: pages with 2-4 core curves, words over them and
    one open book per word.  Then blocks of five kinds, in turn: a sum /
    surgery / cover chain; ``verify equal`` on identities that hold under
    free reduction (cover q1 then q2 equals cover q1*q2; surgery k1 then k2
    equals surgery k1+k2); ``kirby cover`` with and without ``out=``.
    """
    lines, report, files = [], [], {}
    pages = []
    for i in range(4):
        spheres = [f"c{i}{j}" for j in range(int(rng.integers(2, 5)))]
        name = f"pg{i}"
        lines.append(f"page {name} dim=2 handles=[0:1,1:{len(spheres)}] "
                     f"stein=true spheres=[{','.join(spheres)}]")
        pages.append((name, spheres))
    books = []   # (name, page index, letters)
    for i in range(24):
        pi = i % len(pages)
        spheres = pages[pi][1]
        raw = [(spheres[int(rng.integers(len(spheres)))],
                int(rng.choice([-2, -1, 1, 1, 2, 3]))) for _ in range(int(rng.integers(1, 9)))]
        lines.append(f"word w{i} = " + " ".join(l if e == 1 else f"{l}^{e}" for l, e in raw))
        lines.append(f"openbook b{i} = ({pages[pi][0]}, w{i})")
        books.append((f"b{i}", pi, free_reduce(raw)))

    targets = (f"t{i}" for i in itertools.count(1))

    def cover(src: str, letters, q: int):
        t = next(targets)
        lines.append(f"cover {src} q={q} over=binding -> {t}")
        w = free_reduce(letters * q)
        report.append(f"cover:{t}\t{word_text(w)}\t-\tOK")
        return t, w

    def surgery(src: str, letters, label: str, k: int):
        t = next(targets)
        lines.append(f"surgery {src} sphere={label} k={k} -> {t}")
        w = free_reduce(letters + [(label, -k)])
        report.append(f"surgery:{t}\t{word_text(w)}\t-\tOK")
        return t, w

    def verify_equal(a: str, b: str):
        lines.append(f"verify equal {a} {b}")
        report.append(f"verify:equal:{a}:{b}\tequal\t-\tPASS")

    block = 0
    while len(lines) < statements:
        name, pi, letters = books[int(rng.integers(len(books)))]
        spheres = pages[pi][1]
        kind, block = block % 5, block + 1
        if kind == 0:       # sum, then a surgery and a cover on the result
            other = [b for b in books if b[1] == pi][int(rng.integers(6))]
            t = next(targets)
            lines.append(f"sum {name} {other[0]} -> {t}")
            w = free_reduce(letters + other[2])
            report.append(f"sum:{t}\t{word_text(w)}\t-\tOK")
            label = spheres[int(rng.integers(len(spheres)))]
            t, w = surgery(t, w, label, int(rng.choice([-3, -2, -1, 1, 2, 3])))
            cover(t, w, int(rng.integers(1, 5)))
        elif kind == 1:     # cover q1 then q2 against cover q1*q2
            q1, q2 = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            t1, w1 = cover(name, letters, q1)
            t2, _ = cover(t1, w1, q2)
            t3, _ = cover(name, letters, q1 * q2)
            verify_equal(t2, t3)
        elif kind == 2:     # surgery k1 then k2 against surgery k1+k2
            label = spheres[int(rng.integers(len(spheres)))]
            k1 = int(rng.choice([-3, -2, -1, 1, 2, 3]))
            k2 = int(rng.choice([k for k in (-3, -2, -1, 1, 2, 3) if k != -k1]))
            t1, w1 = surgery(name, letters, label, k1)
            t2, _ = surgery(t1, w1, label, k2)
            t3, _ = surgery(name, letters, label, k1 + k2)
            verify_equal(t2, t3)
        else:               # a Kirby diagram of a cover cobordism
            page, sph = pages[pi]
            q = int(rng.integers(1, 6))
            if kind == 3:
                fname = f"cover{int(rng.integers(4))}.kirby"
                lines.append(f"kirby cover {page} q={q} out={fname}")
                path = f"{out_dir}/{fname}"
                report.append(f"kirby:file\t{path}\t-\tOK")
                files[fname] = kirby_cover_text(page, sph, q)
            else:
                lines.append(f"kirby cover {page} q={q}")
                report.append(f"kirby:dotted\t{q - 1}\t-\tOK")
                report.append(f"kirby:two_handles\t{(q - 1) * len(sph)}\t-\tOK")
    return ScenarioCase("\n".join(lines) + "\n", "".join(r + "\n" for r in report),
                        files, len(lines))


def scenario_ok(case: ScenarioCase, out_dir: str, result) -> bool:
    report, status, written = result
    if status != 0 or report != case.report:
        return False
    for name, content in case.files.items():
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            if fh.read() != content:
                return False
    return len(written) == case.report.count("kirby:file\t")


def _scenario_symbolic(seed: int, tiny: bool) -> Prepared:
    import shutil
    import tempfile

    from contactcalc import scenario

    os.makedirs(WORK, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="scenario_", dir=WORK)
    rng = np.random.default_rng(seed)
    statements = 90 if tiny else 1000
    cases = [generate_scenario(rng, statements, out_dir) for _ in range(1 if tiny else 3)]

    def op(i: int, case: ScenarioCase) -> Op:
        return Op(f"scenario{i}",
                  lambda: scenario.run_scenario(scenario.parse_scenario(case.text),
                                                out_dir=out_dir),
                  lambda result: scenario_ok(case, out_dir, result))

    ops = [op(i, c) for i, c in enumerate(cases)]
    # The five block kinds take turns, so 90 statements (about eight blocks)
    # warm every code path without adding a full op to the set-up time.
    warmup = op(-1, generate_scenario(rng, 90, out_dir))
    return Prepared(ops, {"statements": [c.statements for c in cases],
                          "out_files": [len(c.files) for c in cases]},
                    [warmup], cleanup=lambda: shutil.rmtree(out_dir, ignore_errors=True))


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------

CLI_COMMANDS = (("compose", "2", "3"), ("surgery", "--n", "2", "--k", "-1"),
                ("cover", "--n", "1", "--q", "6"), ("kirby", "cover", "--q", "2"),
                ("verify", "forms"), ("verify", "twist", "--n", "6"),
                ("run", "demos/branched_cover_l21.scn"))


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_in_process(argv) -> tuple[int, str]:
    """cli.main on argv inside this process, with stdout captured."""
    from contactcalc import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue()


def run_child(cmd: list[str], rss_kb: list[int]) -> tuple[int, bytes, bytes]:
    """Run one child to completion and record its own peak RSS (KiB).

    The child is reaped with wait4, which reports that child alone; the
    process-wide RUSAGE_CHILDREN peak would also hold the set-up probes.
    """
    os.makedirs(WORK, exist_ok=True)
    with open(_stderr_path(), "w+b") as err_fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=cli_env(),
                                stdout=subprocess.PIPE, stderr=err_fh)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_fh.seek(0)
        err = err_fh.read()
    rss_kb.append(usage.ru_maxrss)
    return proc.returncode, out, err


def _stderr_path() -> str:
    return os.path.join(WORK, f"stderr_{os.getpid()}")


def remove_file(path: str):
    if os.path.exists(path):
        os.remove(path)


def _cli_cold(seed: int, tiny: bool) -> Prepared:
    commands = CLI_COMMANDS[:3] if tiny else CLI_COMMANDS
    expected = {}
    for argv in commands:
        status, text = cli_in_process(argv)
        expected[argv] = (status, text.encode())
    prepared = Prepared([], {"commands": [" ".join(c) for c in commands],
                             "interpreter": sys.executable}, [],
                        cleanup=lambda: remove_file(_stderr_path()))

    def op(argv) -> Op:
        cmd = [sys.executable, "-m", "contactcalc.cli", *argv]
        return Op(" ".join(argv),
                  lambda: run_child(cmd, prepared.child_rss_kb),
                  lambda res: (res[0] == 0 and expected[argv][0] == 0
                               and res[1] == expected[argv][1]
                               and b"Traceback" not in res[2]))

    prepared.ops = [op(argv) for argv in commands]
    prepared.warmup = prepared.ops[:1]
    return prepared


_BUILDERS = {
    "verify_numeric": _verify_numeric,
    "contact_highdim": _contact_highdim,
    "scenario_symbolic": _scenario_symbolic,
    "cli_cold": _cli_cold,
}
