"""Streaming extraction of uniform bits from biased randomness sources.

Sessions (:class:`CoinExtractor`, :class:`DiceExtractor`,
:class:`MarkovExtractor`) consume symbols incrementally and release
output bits whose first k values are exactly uniform for every k the
stream reaches.  :mod:`debias.analysis` predicts the cost,
:mod:`debias.oracle` proves finite configurations uniform by exact
enumeration, and :mod:`debias.inversion` rebuilds inputs from traces.

Importing the package loads none of its submodules: each exported name
imports its submodule on first use, so ``debias extract`` loads only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports from the package
_EXPORTS = {
    "analysis": (
        "TABLE_BIASES",
        "TABLE_DEPTHS",
        "DomainError",
        "EfficiencyReport",
        "SimulationResult",
        "bernoulli_symbols",
        "efficiency_report",
        "entropy",
        "extraction_rate",
        "format_table",
        "level_traffic",
        "processing_time",
        "simulate_efficiency",
        "table_csv",
        "time_table",
        "tosses_per_bit",
        "tosses_table",
    ),
    "coin": (
        "EMPTY",
        "HEADS",
        "HOLD_ONE",
        "HOLD_ZERO",
        "LABELS",
        "SYMBOLS",
        "TAILS",
        "CoinExtractor",
        "NodeUpdate",
        "SourceExhausted",
        "StepResult",
        "TraceNode",
        "extract_bits",
        "node_update",
        "take_bits",
    ),
    "dice": ("DiceExtractor", "binarize", "face_width", "prefix_stream"),
    "inversion": (
        "InconsistentTrace",
        "LengthMismatch",
        "collect_logs",
        "equivalent",
        "flip_and_rebuild",
        "reconstruct",
        "replace_logs",
    ),
    "markov": ("MarkovExtractor", "UnknownState", "exit_stream"),
    "oracle": (
        "HorizonTooLarge",
        "UniformityReport",
        "verify_coin",
        "verify_dice",
        "verify_markov",
    ),
    "vonneumann": ("VonNeumannExtractor", "von_neumann"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
