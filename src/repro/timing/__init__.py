"""EPCglobal C1G2 timing constants, execution-time ledger and link profiles."""

from .c1g2 import (
    C1G2Timing,
    DEFAULT_TIMING,
    INTERVAL_US,
    READER_TO_TAG_US_PER_BIT,
    TAG_TO_READER_US_PER_BIT,
)
from .accounting import Message, PhaseBreakdown, TimeLedger
from .link_budget import FAST_PROFILE, PAPER_PROFILE, SLOW_PROFILE, LinkProfile

__all__ = [
    "C1G2Timing",
    "DEFAULT_TIMING",
    "INTERVAL_US",
    "READER_TO_TAG_US_PER_BIT",
    "TAG_TO_READER_US_PER_BIT",
    "Message",
    "PhaseBreakdown",
    "TimeLedger",
    "FAST_PROFILE",
    "PAPER_PROFILE",
    "SLOW_PROFILE",
    "LinkProfile",
]
