"""simplexfix: do per-axis orderings of labeled points pin down the
orientation of their simplex?

The package decides fixity of ordering configurations exactly (up to
``MAX_LABELS`` labels), enumerates and counts
configurations up to symmetry, constructs exact rational witnesses for
non-fixity, and scans landmark point clouds subset by subset.
"""

from .configio import (
    InputFormatError,
    configuration_from_json,
    configuration_to_json,
    parse_configuration,
    parse_configuration_text,
    render_configuration_text,
)
from .engine import (
    CrossCheckError,
    FixityVerdict,
    InternalCheckError,
    MAX_LABELS,
    NotNonFixedError,
    Status,
    WitnessPair,
    build_witness,
    check_size,
    crosscheck_dim3,
    decide,
    decide_dim1,
    decide_dim2,
    decide_dim3,
    expansion_formal_sign,
    formally_fixed_by_expansion,
    is_conformal,
    non_fixed_by_extreme_lemma,
    replay_certificate,
    sample_signs,
    verify_witness,
)
from .equivalence import (
    GroupElement,
    apply,
    are_equivalent,
    canonical_form,
    canonical_key,
    count_classes,
    enumerate_classes,
    orbit_size,
    sign_parity,
)
from .landmark import PointCloud, ScanReport, derive_configuration, iter_scan, scan
from .orders import (
    Configuration,
    Ordering,
    OrderingCycleError,
    PointAssignment,
    configuration_extensions,
    det_sign,
    extension_count,
    extreme_labels,
    induced,
    is_linear,
    linear_extensions,
    reverse,
    satisfies,
)
from .signs import (
    ConfigSign,
    DetSign,
    FormalSign,
    diff_sign,
    fadd,
    fmul,
    fmul_config,
    fneg,
    formal_det_sign_2x2,
    formal_det_sign_3x3,
    fsub,
)

__version__ = "0.1.0"
