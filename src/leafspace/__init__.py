"""Exact leaf-space dynamics: quadratic-field arithmetic, periodic PL
homeomorphisms of the line, the amalgamated two-piece action with its
no-common-translation certificate, cone-field progress ledgers, and the
shear experiment."""

from .qfield import QNum, qnum, ratio_is_rational, sqrt_of
from .plmap import Bracket, Exact, PLMap, translation_number
from .action import (
    ActionSpec,
    Certificate,
    build_glued_action,
    certify_nonuniform,
    evaluate_word,
    incompressible_interval_search,
    orbit_density,
    side_translation_subgroup,
    standard_beta,
)
from .cones import (
    MetricChain,
    adversarial_stall,
    build_chain_from_action,
    metric_gap_check,
    run_progress_ledger,
)
from .shear import disjointness_check, shadow_length

__version__ = "0.1.0"
