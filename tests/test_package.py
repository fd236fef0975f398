"""The package namespace: every name ``contactcalc`` exports is its
submodule's own object, loaded on first use, and something outside the unit
tests uses it."""

import ast
import importlib
import inspect
import pathlib
import textwrap

import pytest

import contactcalc

# Submodule -> names, as the package imported them eagerly before its exports
# became lazy.  ConditionReport now lives in ``reports``; ``conditions``
# re-exports the same class.
EXPORTED = {
    "charts": ["Chart", "ChartPoint", "darboux_chart", "cotangent_chart"],
    "conditions": ["ConditionReport", "check_contact_condition",
                   "check_contact_dilation"],
    "fields": ["hamiltonian_vector_field", "liouville_vector_field",
               "reeb_vector_field"],
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
    "cobordism": ["Handle", "HomologyProfile",
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
    assert len(PAIRS) == len(contactcalc.__all__) == 64


# Kernel and calculus entry points no command, scenario, demo or benchmark
# reached: a 2-form wrapper, three chart helpers, the octonion product (the
# cross-product table is built from its Fano triples) and a one-line flags
# helper.  A dotted name is an attribute of a class.
DELETED = {
    "forms": ["SkewMatrixAtPoint", "exterior_derivative",
              # the second spelling of ``eval_one_form``
              "OneFormField.at"],
    "charts": ["orthogonality_constraint", "euclidean_chart", "load_sample_file",
               # spheres are with_constraints(chart, [unit_norm_constraint(...)], name)
               "sphere_chart"],
    # L_v alpha = alpha implies L_v d(alpha) = d(alpha), so the 2-form check
    # and its outer differencing step said less than the 1-form check.
    "conditions": ["check_two_form_dilation", "H"],
    "octonion": ["octonion_multiply", "cross7",
                 # one ``cross_matrix`` serves R^3 and R^7
                 "cross7_matrix"],
    "surgery": ["fillability_inherit",
                # OpenBook reads the letters' spheres with PageSpec.carries
                "MonodromyWord.labels"],
    # Folded into ``scenario.execute``, the one executor of the CLI and of
    # scenarios; ``Scenario.words`` holds the words themselves.
    "scenario": ["run_suite", "WordDecl"],
    # Lie derivatives come from Cartan's formula on ``d_matrix``, so the RK4
    # flow and the 2-form wrapper (with its matrix-callable branch) went.
    "fields": ["flow", "two_form_matrix",
               # no command, demo or benchmark solved for a Moser field
               "moser_field"],
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
    "cobordism": ["CobordismSpec",
                  # a genus formula no report line, demo or benchmark used
                  "cabling_genus",
                  # no report, command or demo printed a profile as JSON
                  "HomologyProfile.serialize"],
}


def _binds(obj, dotted: str) -> bool:
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_deleted_names_stay_deleted():
    left = [f"{module}.{name}" for module, names in DELETED.items()
            for name in names
            if _binds(importlib.import_module(f"contactcalc.{module}"), name)
            or _binds(contactcalc, name)]
    assert left == []


ROOT = pathlib.Path(__file__).parent.parent
# The code that reaches an export: the package itself, the demos, the
# benchmark and the acceptance tests, but no unit test.
REACHING = [*(ROOT / "src" / "contactcalc").glob("*.py"), *(ROOT / "demos").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def test_every_export_is_reached():
    used = set()
    for path in REACHING:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(contactcalc.__all__) - used) == []


def test_cli_binds_no_construction():
    # The CLI builds scenario records; ``scenario.execute`` alone calls the
    # constructions.
    from contactcalc import cli
    constructions = ["contact_surgery", "branched_cover", "fibered_manifold",
                     "branched_cover_diagram", "surgery_cobordism_diagram"]
    assert [name for name in constructions if hasattr(cli, name)] == []


def test_cli_binds_no_scenario():
    # A record holds the pages, words and open books it names, so the CLI
    # builds no scenario to declare them in.
    from contactcalc import cli
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.asname or a.name for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) for a in n.names}
    assert "Scenario" not in names


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
    module constants, the differencing step of ``forms.central_difference``
    included."""
    mod = importlib.import_module(f"contactcalc.{module}")
    settable = []
    for name, fn in vars(mod).items():
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__):
            continue
        settable += [f"{name}({param})" for param in inspect.signature(fn).parameters
                     if param in NUMERICAL_SETTINGS or param.endswith("_tol")]
    assert settable == []
