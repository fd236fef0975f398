"""Command-line front end.

Subcommands:
    verify forms | verify twist   numerical verification reports
    compose                       compose twist powers / surgery coefficients
    surgery                       contact (1/k)-surgery on a catalog manifold
    cover                         cyclic branched cover over an open-book binding
    fibered                       fibered-manifold descriptor from a page and words
    kirby                         emit a Kirby diagram (cover or surgery mode)
    run <scenario-file>           parse and execute a scenario

Common flags: --seed (default 0), --tol (default: each verify suite's own
tolerance), --samples, --out.  All output goes to stdout unless --out is
given.  Exit status: 0 when every asserted check passed, 1 when a
verification printed FAIL, 2 on bad input or an unreadable/unwritable file,
with one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .errors import ContactCalcError
from .kirby import branched_cover_diagram, serialize_diagram, surgery_cobordism_diagram
from .scenario import DEFAULT_SAMPLES, Verify, parse_scenario, run_scenario, run_suite
from .surgery import (MonodromyWord, ZERO_SECTION, branched_cover, catalog_M_nk,
                      contact_surgery, disk_cotangent_page, fibered_manifold,
                      surgery_compose, word)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance (default: each verify suite's own)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="sample count")
    p.add_argument("--out", type=str, default=None, help="write output to file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contactcalc",
        description="contact-surgery calculus and differential-forms checks")
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=["forms", "twist"])
    pv.add_argument("--n", type=int, default=2, help="sphere dimension (twist)")
    _add_common(pv)

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
    pk.add_argument("--q", type=int, default=2, help="cover degree")
    pk.add_argument("--k", type=int, default=-1, help="surgery coefficient")
    pk.add_argument("--base", type=str, default=None,
                    help="base-manifold description line")
    _add_common(pk)

    pr = sub.add_parser("run", help="execute a scenario file")
    pr.add_argument("scenario", type=str)
    _add_common(pr)
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
    if args.command == "verify":
        rep = run_suite(Verify(args.suite, n=args.n), args.seed, args.tol,
                        args.samples)
        _emit(verify_mod.render_report(rep), args.out)
        return 1 if verify_mod.report_failed(rep) else 0

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

    if args.command == "surgery":
        m = catalog_M_nk(args.n, 1)
        res = contact_surgery(m, args.sphere, args.k, args.param)
        _emit(res.serialize(), args.out)
        return 0

    if args.command == "cover":
        base = catalog_M_nk(args.n, args.power)
        res = branched_cover(base, "binding", args.q)
        _emit(res.serialize(), args.out)
        return 0

    if args.command == "fibered":
        page = disk_cotangent_page(args.n)
        phi = word((ZERO_SECTION, args.phi)) if args.phi else MonodromyWord()
        psi = word((ZERO_SECTION, args.psi)) if args.psi else MonodromyWord()
        res = fibered_manifold(page, phi, psi)
        _emit(res.serialize(), args.out)
        return 0

    if args.command == "kirby":
        if args.mode == "cover":
            page = _genus_one_page()
            base = (args.base,) if args.base else ()
            diagram = branched_cover_diagram(page, base, args.q)
        else:
            diagram = surgery_cobordism_diagram(args.k)
        _emit(serialize_diagram(diagram), args.out)
        return 0

    if args.command == "run":
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
        scenario = parse_scenario(text)
        report, status, _files = run_scenario(scenario, args.seed, args.tol,
                                              args.samples)
        _emit(report, args.out)
        return status

    raise AssertionError(f"unhandled command {args.command}")


def _genus_one_page():
    from .surgery import PageSpec
    return PageSpec("genus1", 1, ((0, 1), (1, 2)), True, ("a", "b"))


if __name__ == "__main__":
    raise SystemExit(main())
