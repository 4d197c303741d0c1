"""The repository's benchmark of record.

Run from the repository root::

    python3 perfbench/run.py --workload live-figure6 --seed 42 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``live-figure6``     the 26 corpus cells run live, one CPU
``replay-corpus``    their recorded traces replayed offline, one CPU
``service-sessions`` the traces streamed to ``repro serve`` by a closed
                     loop of two clients

Every run sets up first: it records the corpus through
``TraceRecorder`` (and, for the service, starts the server, waits until
it serves and runs one warm-up session per profile), three times in a
plain run so ``setup_s`` is a median.  It then measures for
``--seconds`` (whole passes, at least 100 operations) and checks every
operation's report against its reference.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` reports every per-layer metric: the
workload's own tier is traced for ``--seconds``, then one corpus pass of
each other tier.

Times are in reference seconds: each operation's wall time rescaled by
the speed of the host's CPU around it, as measured by a fixed loop
(``measure.ref_loop``), so a neighbour's load on a shared host does not
move them.  The ``unscaled`` line gives a plain run's figures in wall
seconds.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it record the host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=42, help="scheduler seed")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the service socket path is relative to the root

    import bench
    import measure

    args = _parse(argv, bench.WORKLOADS)

    facts = measure.HostFacts(str(ROOT))
    run = bench.Bench(args, facts)
    try:
        log, values, units = run.run()
    finally:
        run.close()

    print("host " + json.dumps(facts.finish(), sort_keys=True))
    if run.unscaled:
        print("unscaled " + json.dumps(run.unscaled, sort_keys=True))
    print(f"ops {log.attempted} attempted, {log.failed} failed, "
          f"{len(log.latencies)} timed over {log.wall:.3f} s")
    for problem in run.problems + log.errors:
        print(f"problem {problem}")
    result = {
        "correct": not run.problems and log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
