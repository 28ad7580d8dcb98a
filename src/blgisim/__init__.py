"""Weak-measurement Bell-test simulator, binary-data auditor, and
sequential-readout predictor.

Modules:
  streams    counter-based random streams for reproducible parallel runs
  trials     the weak+projective trial protocol: every source a 16-branch
             law plus detector noise (the quantum law a real bilinear form
             in the two qubits' effects and the pair's Pauli correlation
             matrix), one sampler, estimators, the exact oracle, the
             detector noise model, the record table type and the
             chunk/pool driver (trial_chunks)
  audit      the binary bound, the binary+unbiased-noise rejection test and
             the hidden-variable control source
  prediction sequential ancilla readout (prediction_chunks) and the
             after-protocol Bell check
  records    CSV/JSON persistence (read_record_blocks,
             read_prediction_blocks) and run manifests
  cli        command-line harness; not imported here, so that
             ``python -m blgisim.cli`` runs it as a fresh module

Each record kind enters and leaves the package by one route, a stream of
blocks: trial_chunks and prediction_chunks sample them, and the emitters
and the two block readers write and read them.  No public name joins a
stream into one table.

Each public name, and each module above but cli, is imported when it is
first used (PEP 562), so ``import blgisim`` loads no numpy and
``import blgisim.cli`` runs cli.py, which sets numpy's BLAS threading,
before any module here loads numpy.
"""

import importlib

from ._version import __version__

# the module that defines each public name
_EXPORTS = {
    "audit": (
        "CONSISTENT",
        "DEFAULT_THRESHOLD_SIGMAS",
        "INCONCLUSIVE",
        "REJECT",
        "AuditVerdict",
        "EnumerationReport",
        "HiddenVariableConfig",
        "chsh_bound_check",
        "decomposition_test",
        "exhaustive_verify",
        "hidden_variable_config",
        "hidden_variable_source",
    ),
    "prediction": (
        "AccuracyEstimate",
        "PredictionTable",
        "SequentialReadoutParams",
        "exact_post_protocol_chsh",
        "post_protocol_chsh",
        "predict",
        "prediction_accuracy",
        "prediction_accuracy_exact",
        "prediction_chunks",
        "prediction_settings",
    ),
    "records": (
        "SWEEP_HEADER",
        "RunManifest",
        "emit_manifest",
        "emit_predictions",
        "emit_records",
        "emit_sweep",
        "read_manifest",
        "read_prediction_blocks",
        "read_record_blocks",
        "read_sweep",
    ),
    "trials": (
        "NO_NOISE",
        "ChshReport",
        "CorrelatorEstimate",
        "DegenerateBranchError",
        "NoiseModel",
        "Settings",
        "Source",
        "TrialTable",
        "branch_distribution",
        "check_strength",
        "chsh_combine",
        "default_settings",
        "estimate_chsh",
        "exact_chsh",
        "exact_correlator",
        "exact_mean",
        "trial_chunks",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "streams")
__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds itself here as it loads
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # bound, so the next use does not come here
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SUBMODULES})

