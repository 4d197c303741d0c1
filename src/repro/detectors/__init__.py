"""Race- and deadlock-detection engines (the paper's core contribution).

The central class is :class:`HelgrindDetector`, configured by
:class:`HelgrindConfig` into the paper's three evaluation rows plus the
ablation and extension variants:

=============================  =====================================================
``HelgrindConfig.original()``  Helgrind as shipped (mutex-model bus lock)
``HelgrindConfig.hwlc()``      + corrected hardware bus-lock semantics (§3.1)
``HelgrindConfig.hwlc_dr()``   + automatic destructor annotation honoured (§3.1)
``HelgrindConfig.extended()``  + queue/semaphore happens-before (future work, §5)
``HelgrindConfig.raw_eraser()``  §2.3.2's basic algorithm (no states/segments)
``HelgrindConfig.eraser_states()``  Figure 1 states, no thread segments
=============================  =====================================================

Baselines: :class:`DjitDetector` (vector-clock happens-before, §2.2) and
:class:`HybridDetector` (lock-set nominator × happens-before confirmer,
the MultiRace/[12] family).  :class:`LockGraphDetector` reports lock-
order inversions.  All detectors are plain VM hooks; they also work
post-mortem over recorded traces (:func:`repro.runtime.trace.replay`).
"""

from repro.detectors.classify import (
    ClassifiedReport,
    ClassifiedWarning,
    classify_report,
)
from repro.detectors.deadlock import LockGraphDetector
from repro.detectors.dispatch import EventDispatcher, combine_handlers, handles
from repro.detectors.djit import DjitDetector
from repro.detectors.highlevel import HighLevelRaceDetector, ViewInconsistency
from repro.detectors.helgrind import (
    BUS_LOCK_ID,
    BusLockModel,
    HelgrindConfig,
    HelgrindDetector,
)
from repro.detectors.hybrid import HybridDetector
from repro.detectors.racetrack import RaceTrackDetector
from repro.detectors.atomizer import AtomizerDetector
from repro.detectors.lockset import LocksetMachine, ShadowWord, WordState
from repro.detectors.predict import PredictiveDetector
from repro.detectors.report import (
    Finding,
    Report,
    Warning_,
    WarningKind,
    validate_report_json,
)
from repro.detectors.segments import Segment, SegmentGraph
from repro.detectors.suppressions import SuppressionEntry, Suppressions
from repro.detectors.vectorclock import VectorClock

__all__ = [
    "BUS_LOCK_ID",
    "BusLockModel",
    "ClassifiedReport",
    "ClassifiedWarning",
    "DjitDetector",
    "EventDispatcher",
    "combine_handlers",
    "handles",
    "HelgrindConfig",
    "HelgrindDetector",
    "HighLevelRaceDetector",
    "ViewInconsistency",
    "HybridDetector",
    "LockGraphDetector",
    "RaceTrackDetector",
    "AtomizerDetector",
    "LocksetMachine",
    "Finding",
    "PredictiveDetector",
    "Report",
    "Segment",
    "SegmentGraph",
    "ShadowWord",
    "SuppressionEntry",
    "Suppressions",
    "VectorClock",
    "Warning_",
    "WarningKind",
    "WordState",
    "classify_report",
    "validate_report_json",
]
