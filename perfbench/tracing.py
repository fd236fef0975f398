"""Spans around contactcalc's public functions, recorded from outside.

``install`` replaces each traced function at every module attribute that
holds it (``fields`` and ``conditions`` import ``d_matrix`` and friends by
name), so callers that look a function up under any name are all traced.
Spans stay in memory; ``layer_totals`` folds them into per-function calls,
self time and errors.

Run as a script, this module is the traced CLI child for the cli_cold
workload: ``python3 perfbench/tracing.py SPANS.json -- <cli argv>`` runs
``contactcalc.cli.main`` with tracing on and writes its spans to SPANS.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable

# Module, function: the public functions whose calls, self time and errors
# the traced run reports.  contact_margin is split by intrinsic dimension.
TRACED = (
    ("forms", "d_matrix"), ("forms", "eval_one_form"),
    ("fields", "liouville_vector_field"), ("fields", "reeb_vector_field"),
    ("fields", "hamiltonian_vector_field"),
    ("twist", "pullback_two_form"), ("twist", "apply_twist"),
    ("twist", "generator_exp"), ("twist", "isotopy_phi"), ("twist", "mixed_exp"),
    ("conditions", "contact_margin"), ("conditions", "top_form_coefficient"),
    ("charts", "tangent_frame"),
    ("scenario", "parse_scenario"), ("scenario", "run_scenario"),
    ("surgery", "reduce_word"), ("surgery", "liouville_sum_openbooks"),
    ("surgery", "contact_surgery"), ("surgery", "branched_cover"),
    ("kirby", "branched_cover_diagram"), ("kirby", "serialize_diagram"),
    ("verify", "verify_forms"), ("verify", "verify_twist"),
)
MARGIN_DIMS = (5, 7, 9)


def span_names() -> list[str]:
    names = []
    for mod, fn in TRACED:
        if (mod, fn) == ("conditions", "contact_margin"):
            names += [f"conditions.contact_margin.d{d}" for d in MARGIN_DIMS]
        else:
            names.append(f"{mod}.{fn}")
    return names


class Tracer:
    """Span recorder: (id, parent id, name, start ns, end ns, raised)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next = 1

    def wrap(self, name: str, fn: Callable, namer: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            label = namer(args) if namer else name
            start = clock()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, label, start, end, raised))

        return traced


def _margin_name(args) -> str:
    return f"conditions.contact_margin.d{args[1].chart.intrinsic_dim}"


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every TRACED function under every contactcalc name bound to it;
    returns a function that restores the originals."""
    import importlib

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "contactcalc" or name.startswith("contactcalc."))]
    undo = []
    for mod_name, fn_name in TRACED:
        orig = getattr(importlib.import_module(f"contactcalc.{mod_name}"), fn_name)
        namer = _margin_name if fn_name == "contact_margin" else None
        wrapped = tracer.wrap(f"{mod_name}.{fn_name}", orig, namer)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))

    def restore():
        for mod, attr, orig in undo:
            setattr(mod, attr, orig)

    return restore


def layer_totals(spans: list[tuple]) -> dict[str, list]:
    """name -> [calls, self seconds, errors]; self time is a span's duration
    minus the durations of its direct child spans."""
    child_ns: dict[int, int] = {}
    for _sid, parent, _name, start, end, _err in spans:
        child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals = {name: [0, 0.0, 0] for name in span_names()}
    for sid, _parent, name, start, end, err in spans:
        row = totals.setdefault(name, [0, 0.0, 0])
        row[0] += 1
        row[1] += (end - start - child_ns.get(sid, 0)) * 1e-9
        row[2] += int(err)
    return totals


def _child_main(argv: list[str]) -> int:
    """Traced CLI child: tracing.py SPANS.json -- <cli argv>."""
    spans_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <cli argv>")
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from contactcalc import cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(_child_main(sys.argv[1:]))
