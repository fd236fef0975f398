"""The package namespace: every name ``contactcalc`` exports is its
submodule's own object, loaded on first use."""

import ast
import importlib
import inspect
import textwrap

import pytest

import contactcalc

# Submodule -> names, as the package imported them eagerly before its exports
# became lazy.  ConditionReport now lives in ``reports``; ``conditions``
# re-exports the same class.
EXPORTED = {
    "charts": ["Chart", "ChartPoint", "darboux_chart", "cotangent_chart",
               "sphere_chart"],
    "conditions": ["ConditionReport", "check_contact_condition",
                   "check_contact_dilation", "check_two_form_dilation"],
    "fields": ["hamiltonian_vector_field", "liouville_vector_field",
               "moser_field", "reeb_vector_field"],
    "forms": ["OneFormField", "eval_one_form", "d_matrix", "lambda_std",
              "lambda_can", "weinstein", "weinstein_hamiltonian",
              "handle_form", "dz_plus", "theta_invariant"],
    "rounding": ["rounding_curve", "smoothstep"],
    "twist": ["CotangentPoint", "apply_twist", "almost_complex_generator",
              "boundary_displacement_probe", "isotopy_phi", "isotopy_psi",
              "plane_generator", "pullback_two_form"],
    "surgery": ["FillabilityFlags", "ManifoldDescriptor", "MonodromyWord",
                "OpenBook", "PageSpec", "branched_cover", "catalog_M_nk",
                "contact_surgery", "disk_cotangent_page", "fibered_manifold",
                "fillability_propagate", "liouville_sum_openbooks",
                "reduce_word", "surgery_compose", "word"],
    "cobordism": ["Handle", "HomologyProfile", "cabling_genus",
                  "euler_characteristic", "gysin_sphere_bundle_homology",
                  "hopf_invariant_one_exists", "not_stein_certificate",
                  "self_linking_liouville", "stein_homology_check",
                  "sum_cobordism", "twist_square_smoothly_trivial"],
    "kirby": ["KirbyDiagram", "branched_cover_diagram", "parse_diagram",
              "serialize_diagram", "surgery_cobordism_diagram"],
    "scenario": ["Scenario", "ScenarioError", "parse_scenario", "run_scenario"],
}
PAIRS = [(module, name) for module, names in EXPORTED.items() for name in names]


def test_export_count():
    assert len(PAIRS) == len(contactcalc.__all__) == 68


# Kernel and calculus entry points no command, scenario, demo or benchmark
# reached: a 2-form wrapper, three chart helpers, the octonion product (the
# cross-product table is built from its Fano triples) and a one-line flags
# helper.
DELETED = {
    "forms": ["SkewMatrixAtPoint", "exterior_derivative"],
    "charts": ["orthogonality_constraint", "euclidean_chart", "load_sample_file"],
    "octonion": ["octonion_multiply", "cross7",
                 # one ``cross_matrix`` serves R^3 and R^7
                 "cross7_matrix"],
    "surgery": ["fillability_inherit"],
    # Folded into ``scenario.execute``, the one executor of the CLI and of
    # scenarios; ``Scenario.words`` holds the words themselves.
    "scenario": ["run_suite", "WordDecl"],
    # Lie derivatives come from Cartan's formula on ``d_matrix``, so the RK4
    # flow and the 2-form wrapper (with its matrix-callable branch) went.
    "fields": ["flow", "two_form_matrix"],
    # Sample points are drawn as one batch by ``random_points``; a
    # ``CotangentPoint`` is a ``ChartPoint`` on ``tstar_chart(n)``, so its
    # tangent frames come from ``charts.tangent_frame``.
    "twist": ["random_point", "tstar_tangent_frame",
              # Generators are plain arrays; the point's validation is the
              # check that makes A^3 = -A hold.
              "SkewGenerator",
              # The twist is one map: its profile is ``twist.profile`` with
              # the fixed fiber radius ``twist.EPSILON``.
              "TwistProfile", "make_profile"],
    # No command, demo or benchmark built one; its two refusals are the
    # ambient-dimension check and the index bound of ``stein_homology_check``.
    "cobordism": ["CobordismSpec"],
}


def test_deleted_names_stay_deleted():
    left = [f"{module}.{name}" for module, names in DELETED.items()
            for name in names
            if hasattr(importlib.import_module(f"contactcalc.{module}"), name)
            or hasattr(contactcalc, name)]
    assert left == []


def test_cli_binds_no_construction():
    # The CLI builds scenario records; ``scenario.execute`` alone calls the
    # constructions.
    from contactcalc import cli
    constructions = ["contact_surgery", "branched_cover", "fibered_manifold",
                     "branched_cover_diagram", "surgery_cobordism_diagram"]
    assert [name for name in constructions if hasattr(cli, name)] == []


def _unread_parameters(fn) -> list[str]:
    """The parameters of ``fn`` that its body (nested functions included)
    never reads."""
    node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    args = node.args
    params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                              args.vararg, args.kwarg) if a is not None]
    read = {n.id for stmt in node.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in read]


def test_every_exported_function_reads_its_parameters():
    unread = [f"{name}.{param}" for name in contactcalc.__all__
              if inspect.isfunction(fn := getattr(contactcalc, name))
              for param in _unread_parameters(fn)]
    assert unread == []


@pytest.mark.parametrize("module,name", PAIRS)
def test_export_is_the_submodules_object(module, name):
    own = getattr(importlib.import_module(f"contactcalc.{module}"), name)
    assert getattr(contactcalc, name) is own
    assert name in contactcalc.__all__ and name in dir(contactcalc)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from contactcalc import *", namespace)
    for module, name in PAIRS:
        assert namespace[name] is getattr(
            importlib.import_module(f"contactcalc.{module}"), name)


def test_report_records_are_shared():
    from contactcalc import cobordism, conditions, reports, verify
    assert conditions.ConditionReport is cobordism.ConditionReport \
        is reports.ConditionReport
    assert verify.ReportLine is reports.ReportLine
    assert verify.render_report is reports.render_report
    assert verify.report_failed is reports.report_failed


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        contactcalc.no_such_name


def test_submodule_import_and_version():
    from contactcalc import verify
    assert verify is importlib.import_module("contactcalc.verify")
    assert contactcalc.__version__ == "0.1.0"


KERNEL_MODULES = ("forms", "fields", "conditions", "twist", "charts")
NUMERICAL_SETTINGS = {"step", "h", "tolerance", "orientation", "prof", "samples"}


@pytest.mark.parametrize("module", KERNEL_MODULES)
def test_kernel_takes_no_step_or_tolerance(module):
    """Steps, tolerances, the twist profile and the probe's sample count are
    module constants; only the stencil itself, ``forms.central_difference``,
    takes a step."""
    mod = importlib.import_module(f"contactcalc.{module}")
    settable = []
    for name, fn in vars(mod).items():
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__ or name == "central_difference"):
            continue
        settable += [f"{name}({param})" for param in inspect.signature(fn).parameters
                     if param in NUMERICAL_SETTINGS or param.endswith("_tol")]
    assert settable == []
