"""repro — fault detection in multi-threaded (simulated) C++ server applications.

A from-scratch Python reproduction of

    Arndt Mühlenfeld and Franz Wotawa,
    *Fault Detection in Multi-Threaded C++ Server Applications*,
    Electronic Notes in Theoretical Computer Science 174 (2007) 5-22.

The package contains everything the paper's experiments depend on:

``repro.runtime``
    A deterministic cooperative virtual machine — the Valgrind analogue.
    Guest threads run one at a time under a seeded scheduler; every
    memory access, lock operation and allocation is trapped and shown to
    detector hooks.
``repro.cxx``
    A simulated C++ object model: class hierarchies whose destruction
    rewrites object headers (the vptr writes behind the paper's
    destructor false positives), a reference-counted copy-on-write
    string (Figure 8), pooled STL-style allocation (§4's libstdc++
    issue) and non-thread-safe libc functions (§4.1.3).
``repro.instrument``
    The ELSA-parser analogue: a small C++-like language (MiniCxx), a
    three-stage build pipeline (preprocess → annotate → compile) and the
    automatic ``delete``-site annotation of Figure 4.
``repro.detectors``
    The paper's contribution: the Eraser lock-set algorithm with the
    Figure 1 state machine, VisualThreads thread segments (Figure 2),
    the corrected hardware bus-lock model (HWLC), destructor-annotation
    support (DR), plus DJIT vector-clock and hybrid baselines, deadlock
    detection and suppression files.
``repro.sip``
    The application under test: a simulated SIP proxy server with the
    paper's documented bug classes injected, plus a SIPp-like workload
    generator providing test cases T1-T8.
``repro.experiments``
    The harness that regenerates every table and figure of the paper's
    evaluation (see ``EXPERIMENTS.md``).
``repro.api``
    The public facade (``docs/API.md``): :class:`~repro.api.Pipeline`
    (configuration → detector/VM wiring), :class:`~repro.api.Session`
    (incremental analysis with snapshot/restore) and the
    :mod:`~repro.api.profiles` registry.
``repro.service``
    The streaming analysis service (``docs/SERVICE.md``): ``repro
    serve`` accepts concurrent clients streaming RPTR v1 traces into
    per-session detector pipelines with backpressure and checkpoints.
"""

from repro import api
from repro.api import Pipeline, Session
from repro.detectors import (
    DjitDetector,
    HelgrindConfig,
    HelgrindDetector,
    HybridDetector,
    LockGraphDetector,
    Report,
    Suppressions,
    Warning_,
)
from repro.oracle import GroundTruth, WarningCategory
from repro.runtime import (
    VM,
    GuestAPI,
    RandomScheduler,
    RoundRobinScheduler,
    SimThread,
    StickyScheduler,
)

__version__ = "1.0.0"

__all__ = [
    "api",
    "Pipeline",
    "Session",
    "VM",
    "GuestAPI",
    "SimThread",
    "RoundRobinScheduler",
    "RandomScheduler",
    "StickyScheduler",
    "HelgrindDetector",
    "HelgrindConfig",
    "DjitDetector",
    "HybridDetector",
    "LockGraphDetector",
    "Report",
    "Warning_",
    "Suppressions",
    "GroundTruth",
    "WarningCategory",
    "__version__",
]
