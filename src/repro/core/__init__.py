"""The paper's primary contribution: source detection, rounding, PDE, APSP."""

from .source_detection import (
    DETECTION_ENGINES,
    DetectionEntry,
    SourceDetectionResult,
    detect_sources,
    detect_sources_batched,
    run_source_detection_simulation,
    LenzenPelegSourceDetection,
    expand_with_edge_lengths,
    lemma34_message_cap,
)
from .weight_rounding import RoundingScheme
from .pde import PDEEntry, PDEResult, solve_pde
from .detection_exact import (
    ExactDetectionEntry,
    ExactDetectionResult,
    exact_weighted_detection,
    ExactDetectionProtocol,
    run_exact_detection_simulation,
)
from .apsp import APSPResult, approximate_apsp, stretch_statistics

__all__ = [
    "DETECTION_ENGINES",
    "DetectionEntry",
    "SourceDetectionResult",
    "detect_sources",
    "detect_sources_batched",
    "run_source_detection_simulation",
    "LenzenPelegSourceDetection",
    "expand_with_edge_lengths",
    "lemma34_message_cap",
    "RoundingScheme",
    "PDEEntry",
    "PDEResult",
    "solve_pde",
    "ExactDetectionEntry",
    "ExactDetectionResult",
    "exact_weighted_detection",
    "ExactDetectionProtocol",
    "run_exact_detection_simulation",
    "APSPResult",
    "approximate_apsp",
    "stretch_statistics",
]
