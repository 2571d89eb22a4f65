"""Static race analysis over fuzz-kernel programs.

Lowers a :class:`repro.fuzz.program.FuzzProgram` to per-warp lockstep
instruction streams, classifies every byte-level access pair across
*all* legal schedules, and reports one verdict per array region:
``race-free`` (with a proof sketch), ``racy`` (with a witness pair the
ground-truth oracle can confirm), or ``unknown``. See docs/ANALYSIS.md.

The multi-device extension (:mod:`repro.analyze.multidevice`) lifts the
same contract to the cross-GPU race class: a fence-scope lattice
(:mod:`repro.analyze.scopes`), a placement pass mirroring
``SharedPagePool`` semantics, and a pairwise classifier that defers to
:func:`repro.core.racerule.cross_device_order` — validated
differentially against the :class:`MultiDeviceOracle`. Both classifiers
decide pairs by the race rule the oracles call
(:mod:`repro.core.racerule`).
"""

from repro.analyze.benchmodels import (
    BENCHES,
    MG_BENCHES,
    build_mg_model,
    build_model,
    catalog_models,
    mg_catalog_models,
    mg_safe_models,
    model_for,
    safe_model,
)
from repro.analyze.indexset import (
    AffineMap,
    disjoint_proof,
    map_of_stmt,
    privacy_proof,
)
from repro.analyze.lower import device_layout, lower_program
from repro.analyze.mgworker import (
    MGANALYZE_SCHEMA,
    MGAnalyzeCampaignResult,
    MGAnalyzeJob,
    execute_mg_analyze_record,
    run_mg_analyze_campaign,
)
from repro.analyze.multidevice import (
    MG_REPORT_SCHEMA,
    MGArray,
    MGKernel,
    MGProgram,
    analyze_mg_program,
    build_mg_report,
    mg_cross_check,
    mg_device_layout,
    mg_fuzz_model,
    mg_validation_table,
    placement_summary,
)
from repro.analyze.passes import classify_program
from repro.analyze.scopes import (
    SCOPE_BLOCK,
    SCOPE_DEVICE,
    SCOPE_NONE,
    SCOPE_SYSTEM,
    fence_scope,
    publishes,
    scope_join,
    scope_meet,
    scope_name,
)
from repro.analyze.validate import cross_check, validation_table
from repro.analyze.verdict import (
    REPORT_SCHEMA,
    analyze_program,
    build_report,
    report_json,
)
from repro.analyze.worker import (
    ANALYZE_SCHEMA,
    AnalyzeCampaignResult,
    AnalyzeJob,
    execute_analyze_record,
    run_analyze_campaign,
)

__all__ = [
    "ANALYZE_SCHEMA",
    "AffineMap",
    "AnalyzeCampaignResult",
    "AnalyzeJob",
    "BENCHES",
    "MGANALYZE_SCHEMA",
    "MGAnalyzeCampaignResult",
    "MGAnalyzeJob",
    "MGArray",
    "MGKernel",
    "MGProgram",
    "MG_BENCHES",
    "MG_REPORT_SCHEMA",
    "REPORT_SCHEMA",
    "SCOPE_BLOCK",
    "SCOPE_DEVICE",
    "SCOPE_NONE",
    "SCOPE_SYSTEM",
    "analyze_mg_program",
    "analyze_program",
    "build_mg_model",
    "build_mg_report",
    "build_model",
    "build_report",
    "catalog_models",
    "classify_program",
    "cross_check",
    "device_layout",
    "disjoint_proof",
    "execute_analyze_record",
    "execute_mg_analyze_record",
    "fence_scope",
    "lower_program",
    "map_of_stmt",
    "mg_catalog_models",
    "mg_cross_check",
    "mg_device_layout",
    "mg_fuzz_model",
    "mg_safe_models",
    "mg_validation_table",
    "model_for",
    "placement_summary",
    "privacy_proof",
    "publishes",
    "report_json",
    "run_analyze_campaign",
    "run_mg_analyze_campaign",
    "safe_model",
    "scope_join",
    "scope_meet",
    "scope_name",
    "validation_table",
]
