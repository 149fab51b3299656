"""Universally decodable matrix sets of genus g: exact GF(q) linear algebra,
verification and quotients, the curve-based construction, code bounds, and
gapped-PAM modulation audits.

Each public name below is imported from its submodule on first access (PEP
562), so `import udmg` loads no submodule until a name is used.
"""

from importlib import import_module

_EXPORTS = {
    "codes": ("BoundReport", "LinearCode", "bounds", "duplicated", "first_column_code",
              "min_distance"),
    "core": ("Chain", "QuotientResult", "Udmg", "Udvsg", "VerifyReport", "allowable_vectors",
             "matrices_from_chains", "minimal_genus", "prune", "quotient", "realize", "truncate",
             "verify", "verify_chains", "verify_naive"),
    "curves": ("INFINITY", "DivisorSpec", "FnElement", "GoppaConstruction", "LocalExpansion",
               "WeierstrassCurve", "curve_new", "enumerate_points", "evaluate", "ff_arith",
               "function_valuation", "genus0_udmg", "goppa_generator", "goppa_udmg",
               "increasing_zero_basis", "local_expand", "rr_basis"),
    "fields": ("FieldSpec", "FqElement", "arith", "field_from_order", "make_field"),
    "linalg": ("FqMatrix", "Subspace", "complement", "kernel_basis", "quotient_map", "rank",
               "rref", "subspace_sum"),
    "waveform": ("AuditReport", "CodeScheme", "ComplexifiedScheme", "GapCheck",
                 "ModulationBounds", "Modulator", "SnrReport", "audit_product_distance",
                 "build_scheme", "complexify", "gap_audit_exhaustive", "gap_check",
                 "modulation_bounds", "mu0", "snr"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
