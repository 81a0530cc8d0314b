"""gridsigma: power-grid telemetry benchmark for rule-aware anomaly detection.

Pipeline: solve AC power flow over a load profile, extract per-sample sensor
vectors, inject seeded false-data deviations, render three-sigma rule-aware
prompts for LLM agents, and score zero-shot / few-shot / ICL / hybrid
detection against the injection ground truth and a from-scratch
reconstruction-error detector.
"""

from .errors import (
    AgentError,
    CaseFormatError,
    DatasetError,
    DetectorError,
    GridSigmaError,
    PowerFlowError,
    PromptError,
)
from .grid import (
    Branch,
    Bus,
    FeatureLayout,
    Generator,
    GridCase,
    LayoutEntry,
    PowerFlowSolution,
    builtin_ieee14,
    default_layout,
    extract_features,
    solve_newton,
)
from .scenario import (
    Dataset,
    FeatureStats,
    LoadProfile,
    Sample,
    SplitSizes,
    build_dataset,
    compute_stats,
    ingest_load_csv,
    inject_anomaly,
    synth_load_profile,
    zscores,
)
from .ruleoracle import RuleVerdict, reference_agent, three_sigma_label
from .promptkit import (
    AgentVerdict,
    PromptBundle,
    PromptConfig,
    parse_verdict,
    render_prompts,
    render_value_block,
    select_examples,
)
from .agents import (
    AgentKind,
    EndpointConfig,
    ResponseCache,
    complete,
    export_finetune_dataset,
    run_batch,
)
from .detectors import (
    DetectorModel,
    Hyper,
    calibrate_threshold,
    detect,
    hybrid_scores,
    reconstruction_error,
    train_autoencoder,
)
from .evalkit import (
    ConfusionCounts,
    MetricsReport,
    RunConfig,
    ablation_table,
    confusion,
    f1_from,
    metrics,
    run_experiment,
)

__version__ = "0.1.0"
