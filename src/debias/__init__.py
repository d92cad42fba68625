"""Streaming extraction of uniform bits from biased randomness sources.

Sessions (:class:`CoinExtractor`, :class:`DiceExtractor`,
:class:`MarkovExtractor`) consume symbols incrementally and release
output bits whose first k values are exactly uniform for every k the
stream reaches.  :mod:`debias.analysis` predicts the cost,
:mod:`debias.oracle` proves finite configurations uniform by exact
enumeration, and :mod:`debias.inversion` rebuilds inputs from traces.
"""

from .analysis import (
    TABLE_BIASES,
    TABLE_DEPTHS,
    DomainError,
    EfficiencyReport,
    SimulationResult,
    bernoulli_symbols,
    efficiency_report,
    entropy,
    extraction_rate,
    format_table,
    level_traffic,
    processing_time,
    simulate_efficiency,
    table_csv,
    time_table,
    tosses_per_bit,
    tosses_table,
)
from .coin import (
    EMPTY,
    HEADS,
    HOLD_ONE,
    HOLD_ZERO,
    LABELS,
    SYMBOLS,
    TAILS,
    CoinExtractor,
    NodeUpdate,
    SourceExhausted,
    StepResult,
    TraceNode,
    extract_bits,
    node_update,
    take_bits,
)
from .dice import DiceExtractor, binarize, face_width, prefix_stream
from .inversion import (
    InconsistentTrace,
    LengthMismatch,
    collect_logs,
    equivalent,
    flip_and_rebuild,
    reconstruct,
    replace_logs,
)
from .markov import MarkovExtractor, UnknownState, exit_stream
from .oracle import (
    HorizonTooLarge,
    UniformityReport,
    verify_coin,
    verify_dice,
    verify_markov,
)
from .vonneumann import VonNeumannExtractor, von_neumann

__version__ = "0.1.0"

__all__ = [
    "CoinExtractor",
    "DiceExtractor",
    "DomainError",
    "EMPTY",
    "EfficiencyReport",
    "HEADS",
    "HOLD_ONE",
    "HOLD_ZERO",
    "HorizonTooLarge",
    "InconsistentTrace",
    "LABELS",
    "LengthMismatch",
    "MarkovExtractor",
    "NodeUpdate",
    "SimulationResult",
    "SourceExhausted",
    "StepResult",
    "SYMBOLS",
    "TABLE_BIASES",
    "TABLE_DEPTHS",
    "TAILS",
    "TraceNode",
    "UniformityReport",
    "UnknownState",
    "VonNeumannExtractor",
    "bernoulli_symbols",
    "binarize",
    "collect_logs",
    "efficiency_report",
    "entropy",
    "equivalent",
    "exit_stream",
    "extract_bits",
    "extraction_rate",
    "face_width",
    "flip_and_rebuild",
    "format_table",
    "level_traffic",
    "node_update",
    "prefix_stream",
    "processing_time",
    "reconstruct",
    "replace_logs",
    "simulate_efficiency",
    "table_csv",
    "take_bits",
    "time_table",
    "tosses_per_bit",
    "tosses_table",
    "verify_coin",
    "verify_dice",
    "verify_markov",
    "von_neumann",
]
