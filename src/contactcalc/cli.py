"""Command-line front end.

Subcommands:
    verify <suite>                a verification report (a suite of reports.SUITES)
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
from .reports import DEFAULT_SAMPLES, SUITES, render_report, report_failed
from .surgery import (ZERO_SECTION, catalog_M_nk, disk_cotangent_page,
                      genus_one_page, surgery_compose, word)


def _add_common(p: argparse.ArgumentParser, verifies: bool = False):
    """--out everywhere; --seed, --tol and --samples where verify suites run."""
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
    pv.add_argument("suite", choices=SUITES)
    takers = ", ".join(s for s, (_, _, keys) in SUITES.items() if "n" in keys)
    pv.add_argument("--n", type=int, default=None,
                    help=f"sphere dimension (default: the suite's own), for {takers}")
    _add_common(pv, verifies=True)

    pc = sub.add_parser("compose", help="compose surgery coefficients / twist powers")
    pc.add_argument("exponents", type=int, nargs="+",
                    help="coefficients k_i of iterated (1/k_i)-surgeries")
    _add_common(pc)

    ps = sub.add_parser("surgery", help="contact (1/k)-surgery on M(n,1)")
    ps.add_argument("--n", type=int, default=1)
    ps.add_argument("--k", type=int, required=True)
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
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "compose":
        total = surgery_compose(list(args.exponents))
        w = word(*((ZERO_SECTION, -k) for k in args.exponents))
        text = (f"coefficients\t{' '.join(map(str, args.exponents))}\t-\tOK\n"
                f"combined\t{'no surgery' if total is None else total}\t-\tOK\n"
                f"word\t{w}\t-\tOK\n")
        _emit(text, args.out)
        return 0

    # Imported here, not at the top: ``compose`` needs only ``surgery``.
    from .scenario import (Cover, Fibered, Kirby, Surgery, Verify, execute,
                           parse_scenario, run_scenario, statement_modes)
    if args.command == "run":
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = parse_scenario(fh.read())
        report, status, _ = run_scenario(scenario, args.seed, args.tol, args.samples)
        _emit(report, args.out)
        return status

    # Every other subcommand runs one scenario record through the scenario
    # executor; the catalog manifold it names is an implicit declaration.
    env = {}
    if args.command in ("verify", "kirby"):
        # Refuse flags that another mode reads as statement keys, this one not.
        mode = args.suite if args.command == "verify" else args.mode
        modes = statement_modes(args.command)
        foreign = [k for k in vars(args) if k not in modes[mode][2]
                   and any(k in schema[2] for schema in modes.values())]
        if any(getattr(args, k) is not None for k in foreign):
            raise DomainError(f"{args.command} {mode} takes no "
                              + " or ".join(f"--{k}" for k in foreign))
    if args.command == "verify":
        cmd = Verify(args.suite, keys=tuple((k, v) for k, v in vars(args).items()
                                            if k in SUITES[args.suite][2] and v is not None))
        rep = execute(cmd, env, args.seed, args.tol, args.samples)
        _emit(render_report(rep), args.out)
        return 1 if report_failed(rep) else 0

    if args.command == "surgery":
        env["m"] = catalog_M_nk(args.n, 1)
        cmd = Surgery("m", ZERO_SECTION, args.k, "m", param=args.param)
    elif args.command == "cover":
        env["m"] = catalog_M_nk(args.n, args.power)
        cmd = Cover("m", args.q, "m")
    elif args.command == "fibered":
        cmd = Fibered(disk_cotangent_page(args.n), word((ZERO_SECTION, args.phi)),
                      word((ZERO_SECTION, args.psi)), "m")
    elif args.mode == "cover":
        cmd = Kirby("cover", genus_one_page(), 2 if args.q is None else args.q, base=args.base)
    else:
        cmd = Kirby("surgery", k=-1 if args.k is None else args.k)
    res = execute(cmd, env)
    if args.command == "kirby":
        from .kirby import serialize_diagram
        _emit(serialize_diagram(res), args.out)
    else:
        _emit(res.serialize(), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
