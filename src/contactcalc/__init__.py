"""contactcalc: contact-surgery calculus at desk scale.

Numerical kernel for explicit contact/Liouville forms and generalized Dehn
twists, plus a symbolic calculus of open books, contact (1/k)-surgery,
branched covers, Weinstein-handle cobordisms, and Kirby diagrams.

The names below are loaded from their submodule on first use (PEP 562), so
``import contactcalc`` and the symbolic calculus do not import numpy; only
the numerical kernel does.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names the package exports from it.
_EXPORTS = {
    "charts": ("Chart", "ChartPoint", "darboux_chart", "cotangent_chart"),
    "conditions": ("check_contact_condition", "check_contact_dilation"),
    "reports": ("ConditionReport",),
    "fields": ("hamiltonian_vector_field", "liouville_vector_field",
               "reeb_vector_field"),
    "forms": ("OneFormField", "eval_one_form", "d_matrix", "lambda_std",
              "lambda_can", "weinstein", "weinstein_hamiltonian",
              "handle_form", "dz_plus", "theta_invariant"),
    "rounding": ("rounding_curve", "smoothstep"),
    "twist": ("CotangentPoint", "apply_twist", "almost_complex_generator",
              "boundary_displacement_probe", "isotopy_phi", "isotopy_psi",
              "plane_generator", "pullback_two_form"),
    "surgery": ("FillabilityFlags", "ManifoldDescriptor", "MonodromyWord",
                "OpenBook", "PageSpec", "branched_cover", "catalog_M_nk",
                "contact_surgery", "disk_cotangent_page", "fibered_manifold",
                "fillability_propagate", "liouville_sum_openbooks",
                "reduce_word", "surgery_compose", "word"),
    "cobordism": ("Handle", "HomologyProfile", "euler_characteristic",
                  "gysin_sphere_bundle_homology", "hopf_invariant_one_exists",
                  "not_stein_certificate", "self_linking_liouville",
                  "stein_homology_check", "sum_cobordism",
                  "twist_square_smoothly_trivial"),
    "kirby": ("KirbyDiagram", "branched_cover_diagram", "parse_diagram",
              "serialize_diagram", "surgery_cobordism_diagram"),
    "scenario": ("Scenario", "ScenarioError", "parse_scenario", "run_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
