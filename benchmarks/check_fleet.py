"""CI guard: fleet observability reconstructs a kill-one sweep exactly.

Drives the same 2-shard, 60-unit sweep as ``check_shard.py`` -- with one
worker SIGKILL'd mid-run and restarted -- then gates what the *fleet
observability layer* says about it:

1. **Shard 0** runs to completion (``--no-steal``).
2. **Shard 1** starts; once it is publishing, the parent waits a beat
   (so the kill lands mid-simulation, not inside the sub-millisecond
   bookkeeping window after a publish) and SIGKILLs it. The dead worker
   leaves a stale claim, an event stream whose last heartbeat is not
   final, and an incremental manifest behind.
3. **Shard 1 restarts** (new pid => new event stream + manifest) and
   finishes the sweep with ``--reconcile``.
4. After its stream has aged past two claim TTLs, ``repro inspect``
   must reconstruct a complete, exactly-once fleet timeline whose
   ``dist.unit`` record tallies reconcile exactly with the merged
   manifests, and its
   anomaly report must name the killed worker as dead.
5. ``repro top --store`` must render one non-TTY snapshot frame from
   the same store.

Writes ``benchmarks/output/BENCH_fleet.json`` for ``repro bench diff``.

Usage::

    python benchmarks/check_fleet.py
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"
STORE = OUTPUT_DIR / "fleet-store"
BENCH = OUTPUT_DIR / "BENCH_fleet.json"
VIEW_JSON = OUTPUT_DIR / "fleet-view.json"
REPORT_MD = OUTPUT_DIR / "fleet-report.md"
TRACE_JSON = OUTPUT_DIR / "fleet-trace.json"

LAYERS = "Layer1,Layer2"
SCHEMES = "sparten,dense"
SEEDS = ",".join(str(s) for s in range(15))
UNITS = 2 * 2 * 15  # layers x schemes x seeds

CLAIM_TTL = 2.0
#: Short TTL so the restart steals fast and death is provable quickly
#: (heartbeats tick every TTL / 3).
ENV_DEFAULTS = {
    "REPRO_CLAIM_TTL": str(CLAIM_TTL),
    "REPRO_CLAIM_POLL": "0.02",
}


def _sweep_cmd(shard: str, *extra: str) -> list[str]:
    return [
        sys.executable, "-m", "repro", "sweep",
        "--store", str(STORE), "--shard", shard,
        "--network", "alexnet", "--layers", LAYERS,
        "--schemes", SCHEMES, "--seeds", SEEDS,
        "--fidelity", "counters", "--sample", "25",
        *extra,
    ]


def _env() -> dict:
    env = dict(os.environ)
    for key, value in ENV_DEFAULTS.items():
        env.setdefault(key, value)
    return env


def _entries() -> int:
    return len(list(STORE.glob("result-*.json")))


def main(argv: list[str] | None = None) -> int:
    if STORE.exists():
        shutil.rmtree(STORE)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    print(f"check_fleet: phase A -- shard 0/2 over {UNITS} units (no steal)")
    a = subprocess.run(_sweep_cmd("0/2", "--no-steal"), env=_env())
    if a.returncode != 0:
        print("check_fleet: FAIL -- shard 0 sweep exited nonzero")
        return 1
    k0 = _entries()

    print(f"check_fleet: phase B -- shard 1/2 starts, SIGKILL mid-run "
          f"(shard 0 published {k0})")
    victim = subprocess.Popen(_sweep_cmd("1/2", "--no-steal"), env=_env())
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if _entries() >= k0 + 3:
            break  # actively publishing
        if victim.poll() is not None:
            break  # finished before we could kill -- gated below
        time.sleep(0.005)
    # Let the worker get past the post-publish bookkeeping (manifest +
    # event writes, both sub-ms) and into the next unit's simulation,
    # so the kill cannot split an increment from its manifest tally.
    time.sleep(0.15)
    killed_alive = victim.poll() is None
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=60)
    killed_at = time.monotonic()
    k1 = _entries()
    print(f"check_fleet: killed shard-1 pid {victim.pid} with {k1}/{UNITS} "
          f"entries published (alive at kill: {killed_alive})")
    if not (killed_alive and k0 < k1 < UNITS):
        print("check_fleet: FAIL -- the kill did not land mid-run; the "
              "dead-worker path was not exercised (grid too small or "
              "machine too fast -- raise the seed count).")
        return 1

    print("check_fleet: phase C -- shard 1/2 restarts and reconciles")
    c = subprocess.run(
        _sweep_cmd("1/2", "--reconcile"), env=_env(),
        capture_output=True, text=True,
    )
    sys.stdout.write(c.stdout)
    sys.stderr.write(c.stderr)
    if c.returncode != 0:
        print("check_fleet: FAIL -- restarted shard did not reconcile to "
              "complete + exactly-once")
        return 1

    # The killed worker's stream must age past DEAD_AFTER_TTLS x TTL
    # before `classify` may call it dead (its last write came before the
    # kill, so the wait is measured from the kill itself, with slack).
    must_age = 2.0 * CLAIM_TTL + 1.0
    remaining = must_age - (time.monotonic() - killed_at)
    if remaining > 0:
        print(f"check_fleet: aging the dead stream {remaining:.1f}s")
        time.sleep(remaining)

    print("check_fleet: phase D -- repro inspect reconstructs the fleet")
    inspect = subprocess.run(
        [sys.executable, "-m", "repro", "inspect", "--store", str(STORE),
         "--json", str(VIEW_JSON), "--report", str(REPORT_MD),
         "--trace", str(TRACE_JSON)],
        env=_env(), capture_output=True, text=True,
    )
    sys.stdout.write(inspect.stdout)
    sys.stderr.write(inspect.stderr)
    view = json.loads(VIEW_JSON.read_text()) if VIEW_JSON.exists() else {}
    audit = view.get("audit", {})
    dead_workers = [
        w for w in view.get("workers", [])
        if w.get("state") == "dead"
    ]
    dead_flagged = any(w.get("pid") == victim.pid for w in dead_workers)
    inspect_ok = (
        inspect.returncode == 0
        and audit.get("complete") is True
        and audit.get("exactly_once") is True
        and audit.get("counters_consistent") is True
        and audit.get("lost_attribution") == []
    )
    if not inspect_ok:
        print(f"check_fleet: FAIL -- inspect audit not clean: rc="
              f"{inspect.returncode} audit={audit}")
    if not dead_flagged:
        print(f"check_fleet: FAIL -- killed worker pid {victim.pid} not "
              f"flagged dead (dead workers: "
              f"{[w.get('worker') for w in dead_workers]})")

    print("check_fleet: phase E -- repro top renders a snapshot frame")
    top = subprocess.run(
        [sys.executable, "-m", "repro", "top", "--store", str(STORE),
         "--once"],
        env=_env(), capture_output=True, text=True,
    )
    top_ok = top.returncode == 0 and top.stdout.startswith("fleet:")
    sys.stdout.write(top.stdout)
    if not top_ok:
        print(f"check_fleet: FAIL -- top snapshot frame failed "
              f"(rc={top.returncode})")

    payload = {
        "schema": "repro-bench/1",
        "units": UNITS,
        "kill_mid_run": 1,
        "published_before_kill": k1,
        "timeline_complete": int(bool(audit.get("complete"))),
        "exactly_once": int(bool(audit.get("exactly_once"))),
        "counters_consistent": int(bool(audit.get("counters_consistent"))),
        "lost_attribution": len(audit.get("lost_attribution", [1])),
        "dead_worker_flagged": int(dead_flagged),
        "event_streams": view.get("events", {}).get("streams", 0),
        "top_frame": int(top_ok),
        "seconds_total": round(time.monotonic() - started, 2),
    }
    BENCH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"check_fleet: wrote {BENCH}")

    if not (inspect_ok and dead_flagged and top_ok):
        return 1
    print(f"check_fleet: OK -- {UNITS} units, kill at {k1} entries, "
          f"complete exactly-once timeline, dead worker named, "
          f"{payload['event_streams']} event streams merged "
          f"({payload['seconds_total']}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
