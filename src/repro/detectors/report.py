"""Warning records and report aggregation.

Helgrind prints one multi-line warning per *dynamic* detection, but the
paper's metric (Figure 6) is the number of **reported locations**: the
distinct program points warnings point at ("483 reported possible data
race locations").  :class:`Report` therefore deduplicates warnings by
(kind, innermost frame) while still counting dynamic occurrences, and
:meth:`Warning_.format` renders the Figure-9 style text block for human
consumption.

The structured read side: :meth:`Report.findings` views every warning
as a :class:`Finding` (``kind`` ∈ ``race`` | ``deadlock`` |
``predicted_race`` | ``predicted_deadlock``), :meth:`Report.render`
produces the canonical serialisation every consumer compares
byte-for-byte (CLI ``--report-out``, service REPORT frames), and :meth:`Report.to_json` is the
schema-validated machine twin (:func:`validate_report_json`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.events import CallStack, Frame

__all__ = [
    "Finding",
    "REPORT_SCHEMA_VERSION",
    "Report",
    "Warning_",
    "WarningKind",
    "validate_report_json",
]

#: Version of the :meth:`Report.to_json` document layout.
REPORT_SCHEMA_VERSION = 1


class WarningKind:
    """String constants for warning kinds (kept open for extensions)."""

    DATA_RACE = "possible-data-race"
    LOCK_ORDER = "lock-order-violation"
    DEADLOCK = "deadlock"
    #: Predictive tier: a race that did not manifest in the observed
    #: interleaving but is feasible under another schedule.
    PREDICTED_RACE = "predicted-data-race"
    #: Predictive tier: a lock-order cycle spanning cross-thread
    #: critical sections — a deadlock some schedule can reach.
    PREDICTED_DEADLOCK = "predicted-deadlock"


#: Warning kind → the coarse :class:`Finding` vocabulary.
_FINDING_KINDS = {
    WarningKind.DATA_RACE: "race",
    WarningKind.LOCK_ORDER: "deadlock",
    WarningKind.DEADLOCK: "deadlock",
    WarningKind.PREDICTED_RACE: "predicted_race",
    WarningKind.PREDICTED_DEADLOCK: "predicted_deadlock",
}


@dataclass(slots=True)
class Warning_:
    """One detector warning (named with a trailing underscore to avoid
    shadowing the built-in ``Warning``).

    ``details`` carries kind-specific extras rendered verbatim in
    :meth:`format` (previous shadow state, candidate lock-set, the
    Figure-9 block-description line, a lock cycle, ...).
    """

    kind: str
    message: str
    tid: int
    step: int
    stack: CallStack = ()
    addr: int | None = None
    details: dict = field(default_factory=dict)

    @property
    def site(self) -> Frame | None:
        """Innermost frame — the 'location' Figure 6 counts."""
        return self.stack[0] if self.stack else None

    @property
    def location_key(self) -> tuple:
        """Deduplication key: same kind at the same program point.

        Valgrind deduplicates by the *full* call stack, so two warnings
        at the same innermost function reached through different call
        paths count as two locations — that is what lets the paper's
        location counts reach the hundreds on a large application.
        """
        if not self.stack:
            # No symbol information: fall back to the address, the best
            # Helgrind itself can do without debug symbols (§3.2).
            return (self.kind, ("<unknown>", self.addr))
        return (self.kind, self.stack)

    def format(self) -> str:
        """Render a Valgrind-style multi-line warning block (cf. Fig 9)."""
        lines = [f"== {self.message}"]
        if self.addr is not None:
            lines[0] += f" at {self.addr:#x}"
        for i, frame in enumerate(self.stack):
            prefix = "==    at" if i == 0 else "==    by"
            lines.append(f"{prefix} {frame}")
        for key, value in self.details.items():
            lines.append(f"==  {key}: {value}")
        lines.append(f"==  (thread {self.tid}, step {self.step})")
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class Finding:
    """A structured, consumer-facing view of one reported location.

    ``kind`` collapses the warning-kind vocabulary to four values —
    ``race``, ``deadlock``, ``predicted_race``, ``predicted_deadlock``
    — so callers can branch on finding class without knowing every
    warning-kind string.  ``warning`` keeps the full record (message,
    details, address) for anything richer.
    """

    kind: str
    location: Frame | None
    stack: CallStack
    step: int
    tid: int
    occurrences: int
    warning: Warning_

    @property
    def predicted(self) -> bool:
        """True for findings the run never exhibited live."""
        return self.kind.startswith("predicted_")


class Report:
    """Aggregates warnings, deduplicating by location.

    ``suppressions`` (a :class:`repro.detectors.suppressions.Suppressions`)
    is consulted at :meth:`add` time, matching how Helgrind's
    suppression files filter warnings before they reach the log.
    """

    def __init__(self, suppressions=None) -> None:
        self.warnings: list[Warning_] = []
        self._by_location: dict[tuple, Warning_] = {}
        self.occurrences: dict[tuple, int] = {}
        self.suppressed_count = 0
        self.suppressions = suppressions

    def add(self, warning: Warning_) -> bool:
        """Record ``warning``; True if it is a *new* location."""
        if self.suppressions is not None and self.suppressions.matches(warning):
            self.suppressed_count += 1
            return False
        key = warning.location_key
        self.occurrences[key] = self.occurrences.get(key, 0) + 1
        if key in self._by_location:
            return False
        self._by_location[key] = warning
        self.warnings.append(warning)
        return True

    # ------------------------------------------------------------------

    @property
    def location_count(self) -> int:
        """The Figure-6 metric: distinct reported locations."""
        return len(self.warnings)

    @property
    def dynamic_count(self) -> int:
        """Total dynamic (non-suppressed) detections."""
        return sum(self.occurrences.values())

    def by_kind(self, kind: str) -> list[Warning_]:
        return [w for w in self.warnings if w.kind == kind]

    def findings(self) -> list[Finding]:
        """Every deduplicated warning as a structured :class:`Finding`,
        in report order."""
        return [
            Finding(
                kind=_FINDING_KINDS.get(w.kind, w.kind),
                location=w.site,
                stack=w.stack,
                step=w.step,
                tid=w.tid,
                occurrences=self.occurrences.get(w.location_key, 1),
                warning=w,
            )
            for w in self.warnings
        ]

    def predicted_findings(self) -> list[Finding]:
        """Just the predictive tier's output (empty on legacy tiers)."""
        return [f for f in self.findings() if f.predicted]

    def locations(self) -> list[tuple]:
        return list(self._by_location)

    def format_summary(self) -> str:
        parts = [
            f"{self.location_count} reported locations "
            f"({self.dynamic_count} dynamic occurrences, "
            f"{self.suppressed_count} suppressed)"
        ]
        kinds: dict[str, int] = {}
        for w in self.warnings:
            kinds[w.kind] = kinds.get(w.kind, 0) + 1
        for kind in sorted(kinds):
            parts.append(f"  {kind}: {kinds[kind]}")
        return "\n".join(parts)

    def format_full(self) -> str:
        """Every deduplicated warning, Figure-9 style, in report order."""
        return "\n\n".join(w.format() for w in self.warnings)

    # ------------------------------------------------------------------
    # Persistence (for CI baselines and offline triage tooling)
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """Serialise the report (warnings + occurrence counts)."""
        return {
            "suppressed_count": self.suppressed_count,
            "warnings": [
                {
                    "kind": w.kind,
                    "message": w.message,
                    "tid": w.tid,
                    "step": w.step,
                    "addr": w.addr,
                    "stack": [(f.function, f.file, f.line) for f in w.stack],
                    "details": {k: str(v) for k, v in w.details.items()},
                    "occurrences": self.occurrences.get(w.location_key, 1),
                }
                for w in self.warnings
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        """Rebuild a report saved with :meth:`to_dict`."""
        report = cls()
        report.suppressed_count = data.get("suppressed_count", 0)
        for item in data["warnings"]:
            warning = Warning_(
                kind=item["kind"],
                message=item["message"],
                tid=item["tid"],
                step=item["step"],
                stack=tuple(Frame(fn, fi, ln) for fn, fi, ln in item["stack"]),
                addr=item["addr"],
                details=dict(item.get("details", {})),
            )
            report.add(warning)
            report.occurrences[warning.location_key] = item.get("occurrences", 1)
        return report

    def render(self) -> str:
        """The canonical report text.

        This is the byte-identity contract: the CLI's ``--report-out``
        files, the service's REPORT frames and ``Session.report_text()``
        all compare this exact string (no trailing newline).
        """
        import json

        return json.dumps(self.to_dict(), indent=2)

    def to_json(self) -> dict:
        """The structured machine twin (schema-validated, like the
        telemetry exporters): findings keyed by the coarse kind
        vocabulary plus the raw warning records.
        """
        return {
            "version": REPORT_SCHEMA_VERSION,
            "suppressed_count": self.suppressed_count,
            "location_count": self.location_count,
            "dynamic_count": self.dynamic_count,
            "findings": [
                {
                    "kind": f.kind,
                    "predicted": f.predicted,
                    "location": (
                        [f.location.function, f.location.file, f.location.line]
                        if f.location is not None
                        else None
                    ),
                    "stack": [
                        [fr.function, fr.file, fr.line] for fr in f.stack
                    ],
                    "step": f.step,
                    "tid": f.tid,
                    "occurrences": f.occurrences,
                    "message": f.warning.message,
                    "details": {
                        k: str(v) for k, v in f.warning.details.items()
                    },
                }
                for f in self.findings()
            ],
        }

    def save(self, path) -> None:
        """Write the report as JSON (exactly :meth:`render`)."""
        from pathlib import Path

        Path(path).write_text(self.render(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Report":
        """Read a report written by :meth:`save`."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def __len__(self) -> int:
        return len(self.warnings)

    def __iter__(self):
        return iter(self.warnings)


_FINDING_VOCABULARY = frozenset(_FINDING_KINDS.values())


def validate_report_json(doc: object) -> list[str]:
    """Structural validation of a :meth:`Report.to_json` document.

    Returns human-readable problems (empty = valid) — the same
    contract, and the same no-``jsonschema`` constraint, as
    :func:`repro.telemetry.schema.validate_snapshot`.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"report must be an object, got {type(doc).__name__}"]
    if doc.get("version") != REPORT_SCHEMA_VERSION:
        problems.append(
            f"version must be {REPORT_SCHEMA_VERSION}, "
            f"got {doc.get('version')!r}"
        )
    for key in ("suppressed_count", "location_count", "dynamic_count"):
        value = doc.get(key)
        if not isinstance(value, int) or value < 0:
            problems.append(f"{key} must be a non-negative integer, got {value!r}")
    findings = doc.get("findings")
    if not isinstance(findings, list):
        problems.append("findings must be a list")
        return problems
    if isinstance(doc.get("location_count"), int) and len(findings) != doc[
        "location_count"
    ]:
        problems.append(
            f"location_count is {doc['location_count']} but there are "
            f"{len(findings)} findings"
        )
    for i, finding in enumerate(findings):
        where = f"findings[{i}]"
        if not isinstance(finding, dict):
            problems.append(f"{where}: not an object")
            continue
        kind = finding.get("kind")
        if kind not in _FINDING_VOCABULARY:
            problems.append(f"{where}: unknown kind {kind!r}")
        elif finding.get("predicted") != kind.startswith("predicted_"):
            problems.append(
                f"{where}: predicted flag disagrees with kind {kind!r}"
            )
        stack = finding.get("stack")
        if not isinstance(stack, list) or not all(
            isinstance(fr, list)
            and len(fr) == 3
            and isinstance(fr[0], str)
            and isinstance(fr[1], str)
            and isinstance(fr[2], int)
            for fr in stack
        ):
            problems.append(f"{where}: stack must be a list of [fn, file, line]")
        location = finding.get("location")
        if location is not None and (
            not isinstance(location, list) or len(location) != 3
        ):
            problems.append(f"{where}: location must be null or [fn, file, line]")
        for key in ("step", "tid", "occurrences"):
            if not isinstance(finding.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if not isinstance(finding.get("message"), str):
            problems.append(f"{where}: message must be a string")
        details = finding.get("details")
        if not isinstance(details, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in details.items()
        ):
            problems.append(f"{where}: details must be a string->string object")
    return problems
