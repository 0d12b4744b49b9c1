"""simplexfix: do per-axis orderings of labeled points pin down the
orientation of their simplex?

The package decides fixity of ordering configurations exactly (up to
``MAX_LABELS`` labels), enumerates and counts
configurations up to symmetry, constructs exact rational witnesses for
non-fixity, and scans landmark point clouds subset by subset.

Each public name is imported from its module when first read (PEP 562),
so a process loads only the modules it uses: a ``simplexfix scan``
process loads neither the engine nor the symmetry group.
"""

from importlib import import_module

_MODULE_OF = {
    "configio": (
        "InputFormatError",
        "configuration_from_json",
        "configuration_to_json",
        "parse_configuration",
        "parse_configuration_text",
        "render_configuration_text",
    ),
    "criteria": ("InternalCheckError", "MAX_LABELS", "Status", "check_size"),
    "engine": (
        "CrossCheckError",
        "FixityVerdict",
        "NotNonFixedError",
        "WitnessPair",
        "build_witness",
        "decide",
        "decide_dim1",
        "decide_dim2",
        "decide_dim3",
        "expansion_formal_sign",
        "formally_fixed_by_expansion",
        "is_conformal",
        "non_fixed_by_extreme_lemma",
        "replay_certificate",
        "sample_signs",
        "verify_witness",
    ),
    "equivalence": (
        "GroupElement",
        "apply",
        "are_equivalent",
        "canonical_form",
        "canonical_key",
        "count_classes",
        "enumerate_classes",
        "orbit_size",
        "sign_parity",
    ),
    "landmark": ("PointCloud", "ScanReport", "derive_configuration", "iter_scan", "scan"),
    "orders": (
        "Configuration",
        "Ordering",
        "OrderingCycleError",
        "PointAssignment",
        "configuration_extensions",
        "det_sign",
        "extension_count",
        "extreme_labels",
        "induced",
        "is_linear",
        "linear_extensions",
        "reverse",
        "satisfies",
    ),
    "signs": (
        "ConfigSign",
        "DetSign",
        "FormalSign",
        "diff_sign",
        "fadd",
        "fmul",
        "fmul_config",
        "fneg",
        "formal_det_sign_2x2",
        "formal_det_sign_3x3",
        "fsub",
    ),
}
_SOURCE = {name: module for module, names in _MODULE_OF.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
