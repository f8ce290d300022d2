"""Exact-arithmetic toolkit for minimal-orbit quantization data.

Layers: exact polynomial algebra (`exactalg`), sparse exact linear
algebra (`sparse`), operator calculus (`opcalc`), the case registry
(`jordan`), bundle classification (`bundles`), the spectral ladder
engine (`ladder`), series (`hyperg`), concrete operator models
(`models`), and the `orbit` CLI (`cli`).
"""

import os

from .bundles import BundleModel, alpha_of, classify_bundles, pi1_component_order
from .catalog import TWIST_F0, TWIST_PLAIN, golden_rows
from .exactalg import Polynomial, VariableContext
from .hyperg import kernel_coefficients, matrix_coefficient, pochhammer
from .jordan import JordanBlock, JordanCase, lookup_case, sweep_case_ids, validate_case
from .ladder import (CapelliProfile, ExtractionFailure, LadderPoint,
                     R_eigenvalue, bracket_valid, capelli_profile, extract_ab,
                     j_identity_check, ladder_norms, level_data, multidegree)
from .models import build_model, model_hw_norm, solve_gram, verify_brackets

__version__ = "0.1.0"


def sweep_seed(default: int = 20260826) -> int:
    """Seed for randomized sweeps; override with ORBITQ_SEED."""
    return int(os.environ.get("ORBITQ_SEED", default))
