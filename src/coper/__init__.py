"""Composite-periodicity benchmark toolkit.

Generates controlled periodic-sequence corpora with Hollow and
Extrapolation OOD splits, trains a small decoder-only transformer with
pluggable positional encodings on them (pure numpy, no framework), and
ships numerical checks for the rotary-embedding invariances the splits
are designed to probe.
"""

__version__ = "0.1.0"

from .composers import AnswerLenPolicy, ComposeRule  # noqa: F401
from .cycles import PeriodicCycle  # noqa: F401
from .dataset import SampleRecord, Split, SplitPolicy, build_dataset, verify_dataset  # noqa: F401
from .model import ModelConfig, PeKind, Transformer  # noqa: F401
from .training import TrainConfig, train  # noqa: F401
