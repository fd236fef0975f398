"""Command-line front end.

Subcommands:
    verify forms | verify twist   numerical verification reports
    compose                       compose twist powers / surgery coefficients
    surgery                       contact (1/k)-surgery on a catalog manifold
    cover                         cyclic branched cover over an open-book binding
    fibered                       fibered-manifold descriptor from a page and words
    kirby                         emit a Kirby diagram (cover or surgery mode)
    run <scenario-file>           parse and execute a scenario

``verify`` and ``run`` take --seed (default 0), --tol (default: each verify
suite's own tolerance) and --samples; every subcommand takes --out.  All
output goes to stdout unless --out is given.  Exit status: 0 when every
asserted check passed, 1 when a verification printed FAIL, 2 on bad input or
an unreadable/unwritable file, with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ContactCalcError, DomainError
from .kirby import serialize_diagram
from .reports import DEFAULT_SAMPLES, render_report, report_failed
from .scenario import (Cover, Fibered, Kirby, Scenario, Surgery, Verify,
                       execute, parse_scenario, run_scenario)
from .surgery import (MonodromyWord, PageSpec, ZERO_SECTION, catalog_M_nk,
                      disk_cotangent_page, surgery_compose, word)


def _add_common(p: argparse.ArgumentParser, verifies: bool = False):
    """--out everywhere; --seed, --tol and --samples only on the subcommands
    that run verify suites, which are the only ones that read them."""
    if verifies:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="tolerance (default: each verify suite's own)")
        p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="sample count")
    p.add_argument("--out", type=str, default=None, help="write output to file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contactcalc",
        description="contact-surgery calculus and differential-forms checks")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=["forms", "twist"])
    pv.add_argument("--n", type=int, default=None,
                    help="sphere dimension (twist only, default 2)")
    _add_common(pv, verifies=True)

    pc = sub.add_parser("compose", help="compose surgery coefficients / twist powers")
    pc.add_argument("exponents", type=int, nargs="+",
                    help="coefficients k_i of iterated (1/k_i)-surgeries")
    _add_common(pc)

    ps = sub.add_parser("surgery", help="contact (1/k)-surgery on M(n,1)")
    ps.add_argument("--n", type=int, default=1)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--sphere", type=str, default=ZERO_SECTION)
    ps.add_argument("--param", type=str, default="std")
    _add_common(ps)

    pb = sub.add_parser("cover", help="cyclic branched cover over the binding")
    pb.add_argument("--n", type=int, default=1)
    pb.add_argument("--power", type=int, default=1,
                    help="monodromy twist power of the base open book")
    pb.add_argument("--q", type=int, required=True)
    _add_common(pb)

    pf = sub.add_parser("fibered", help="fibered manifold from page and two words")
    pf.add_argument("--n", type=int, default=1)
    pf.add_argument("--phi", type=int, default=0, help="twist power of phi")
    pf.add_argument("--psi", type=int, default=0, help="twist power of psi")
    _add_common(pf)

    pk = sub.add_parser("kirby", help="emit a Kirby diagram")
    pk.add_argument("mode", choices=["cover", "surgery"])
    pk.add_argument("--q", type=int, default=None, help="cover degree (default 2)")
    pk.add_argument("--k", type=int, default=None,
                    help="surgery coefficient (default -1)")
    pk.add_argument("--base", type=str, default=None,
                    help="base-manifold description line (cover mode)")
    _add_common(pk)

    pr = sub.add_parser("run", help="execute a scenario file")
    pr.add_argument("scenario", type=str)
    _add_common(pr, verifies=True)
    return ap


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ContactCalcError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "compose":
        total = surgery_compose(list(args.exponents))
        w = MonodromyWord()
        for k in args.exponents:
            w = w * word((ZERO_SECTION, -k))
        text = (f"coefficients\t{' '.join(map(str, args.exponents))}\t-\tOK\n"
                f"combined\t{'no surgery' if total is None else total}\t-\tOK\n"
                f"word\t{w}\t-\tOK\n")
        _emit(text, args.out)
        return 0

    if args.command == "run":
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
        scenario = parse_scenario(text)
        report, status, _files = run_scenario(scenario, args.seed, args.tol,
                                              args.samples)
        _emit(report, args.out)
        return status

    # Every other subcommand runs one scenario record through the scenario
    # executor; the catalog manifold, page and words it names are implicit
    # declarations.
    s, env = Scenario(), {}
    if args.command == "verify":
        if args.suite == "forms" and args.n is not None:
            raise DomainError("verify forms takes no --n")
        cmd = Verify(args.suite) if args.n is None else Verify(args.suite, n=args.n)
        rep = execute(cmd, s, env, args.seed, args.tol, args.samples)
        _emit(render_report(rep), args.out)
        return 1 if report_failed(rep) else 0

    if args.command == "surgery":
        env["m"] = catalog_M_nk(args.n, 1)
        cmd = Surgery("m", args.sphere, args.k, "m", param=args.param)
    elif args.command == "cover":
        env["m"] = catalog_M_nk(args.n, args.power)
        cmd = Cover("m", args.q, "m")
    elif args.command == "fibered":
        s.pages["page"] = disk_cotangent_page(args.n)
        s.words.update(phi=word((ZERO_SECTION, args.phi)),
                       psi=word((ZERO_SECTION, args.psi)))
        cmd = Fibered("page", "phi", "psi", "m")
    elif args.mode == "cover":
        if args.k is not None:
            raise DomainError("kirby cover takes no --k")
        s.pages["genus1"] = PageSpec("genus1", 1, ((0, 1), (1, 2)), True, ("a", "b"))
        cmd = Kirby("cover", "genus1", 2 if args.q is None else args.q, base=args.base)
    else:
        if args.q is not None or args.base is not None:
            raise DomainError("kirby surgery takes no --q or --base")
        cmd = Kirby("surgery", k=-1 if args.k is None else args.k)
    res = execute(cmd, s, env)
    _emit(serialize_diagram(res) if args.command == "kirby" else res.serialize(),
          args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
