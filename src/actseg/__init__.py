"""Similarity-driven temporal action segmentation toolkit.

Segments untrimmed activity videos given per-frame feature vectors:
corrects segment boundaries in existing frame-wise predictions, detects
boundaries with no training at all, smooths noisy segments, fuses
multiple predictions by voting, and scores everything with the standard
segmentation metrics.
"""

from .core import (AUTO, BoundarySet, CorrectionConfig, DetectConfig,
                   FeatureSequence, LabelSequence, Segment, SegmentTimeline,
                   boundaries_of, from_boundaries, run_classes, to_timeline)
from .correction import (BoundaryRecord, CorrectionReport, auto_window_params,
                         correct_all, correct_boundary)
from .detect import (MethodProposals, auto_b_intrv, cluster_bounds, detect,
                     frame_scores, mean_filter, merge_mean, remove_close,
                     segment_labels)
from .metrics import (EvalOptions, EvalResult, boundary_f1, edit_score,
                      evaluate, evaluate_batch, f1_at, frame_accuracy,
                      greedy_label_match, hungarian_label_match)
from .postprocess import (PredictionSet, SmoothConfig, auto_s_win, smooth,
                          vote)
from .similarity import (ClusterAssignment, Metric, block_similarity, dtw,
                         kmeans, transition_index)
from .synth import SynthSpec, generate, perturb_boundaries

__version__ = "0.1.0"

__all__ = [
    "AUTO", "BoundarySet", "CorrectionConfig", "DetectConfig",
    "FeatureSequence", "LabelSequence", "Segment", "SegmentTimeline",
    "boundaries_of", "from_boundaries", "run_classes", "to_timeline",
    "BoundaryRecord", "CorrectionReport", "auto_window_params",
    "correct_all", "correct_boundary",
    "MethodProposals", "auto_b_intrv", "cluster_bounds", "detect",
    "frame_scores", "mean_filter", "merge_mean", "remove_close",
    "segment_labels",
    "EvalOptions", "EvalResult", "boundary_f1", "edit_score", "evaluate",
    "evaluate_batch", "f1_at", "frame_accuracy", "greedy_label_match",
    "hungarian_label_match",
    "PredictionSet", "SmoothConfig", "auto_s_win", "smooth", "vote",
    "ClusterAssignment", "Metric", "block_similarity", "dtw",
    "kmeans", "transition_index",
    "SynthSpec", "generate", "perturb_boundaries",
    "__version__",
]
