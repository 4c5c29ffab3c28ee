"""CI gate: validate an event stream against its run manifest.

Usage::

    python benchmarks/check_events.py EVENTS.jsonl MANIFEST.json \
        [--allow-gaps] [--min-pids N]

Checks, in order:

1. the stream is non-empty and every record is schema-valid
   (:func:`repro.telemetry.events.validate_events`: required keys,
   schema version, unique ``(pid, seq)``, merged timestamp order,
   per-pid contiguity),
2. the stream covers the run lifecycle (a ``run.start`` record exists),
3. the stream's record count equals the manifest's ``events.records``
   counter **exactly**. The two travel apart: every process counts one
   ``events.records`` per record it writes or buffers, and a pool
   worker's count reaches the parent in its snapshot's counters while
   its records arrive in the snapshot's record list. Equality is the
   proof that no kept record was lost or duplicated across the worker
   merge, and that no discarded attempt's record slipped in,
4. the manifest's ``events`` section points back at the stream.

``--allow-gaps`` relaxes the per-pid sequence contiguity check for
chaos runs, where discarded attempts legitimately consume sequence
numbers. ``--min-pids N`` fails a stream written by fewer than N
processes: a run whose pool workers are meant to write records (a
``cache_corrupt`` run over a store) proves nothing about the worker
merge if only the parent wrote. Exits 0 on success, 1 on any failure,
2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.telemetry import events  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Validate an event stream against its run manifest."
    )
    parser.add_argument("events_path")
    parser.add_argument("manifest_path")
    parser.add_argument("--allow-gaps", action="store_true")
    parser.add_argument("--min-pids", type=int, default=1)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or bad usage (argparse exits 2)
        return int(exc.code or 0)
    events_path, manifest_path = args.events_path, args.manifest_path

    try:
        records = events.read_events(events_path)
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read event stream: {exc}")
        return 1
    if not records:
        print(f"FAIL: event stream {events_path} is empty")
        return 1

    try:
        summary = events.validate_events(records, allow_gaps=args.allow_gaps)
    except ValueError as exc:
        print(f"FAIL: stream invariant violated: {exc}")
        return 1
    print(
        f"OK: {summary['records']} events from {len(summary['pids'])} process(es), "
        f"kinds: {sorted(summary['kinds'])}"
    )

    if len(summary["pids"]) < args.min_pids:
        print(f"FAIL: {len(summary['pids'])} process(es) wrote records, "
              f"--min-pids asks for {args.min_pids}")
        return 1

    if not summary["kinds"].get("run.start"):
        print("FAIL: stream has no run.start record")
        return 1

    try:
        manifest = json.loads(pathlib.Path(manifest_path).read_text())
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read manifest: {exc}")
        return 1

    counted = (manifest.get("counters") or {}).get(events.RECORDS_COUNTER, 0)
    if len(records) != counted:
        print(f"FAIL: the stream holds {len(records)} records but the manifest "
              f"counted {events.RECORDS_COUNTER} = {counted:g}")
        return 1
    print(f"OK: {len(records)} records == manifest {events.RECORDS_COUNTER}")

    described = (manifest.get("events") or {}).get("path")
    if not described:
        print("FAIL: manifest has no events section (schema too old?)")
        return 1
    print(f"OK: manifest records event log {described}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
