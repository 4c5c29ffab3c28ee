"""CI guard: a sharded sweep survives a SIGKILL'd worker with zero recompute.

Drives the ``repro sweep`` CLI across two shards of a 60-unit
(layer, scheme, seed) grid sharing one store directory, with a real
worker death in the middle:

1. **Shard 0** runs to completion (``--no-steal``, so shard 1's units
   stay unpublished).
2. **Shard 1** starts; as soon as it has published a few result
   entries the parent SIGKILLs it mid-run -- no atexit, no cleanup,
   a stale claim left behind.
3. **Shard 1 restarts** with ``--reconcile``. The store's result tier is
   the coordination log, so the restart must skip every entry published
   before the kill (proved by ``st_mtime_ns`` invariance), steal the
   dead process's stale claim, finish the sweep, and reconcile to
   complete + exactly-once.

Gates (all deterministic, tight-band in ``bench_baseline_shard.json``):

- the kill landed mid-run (entries at kill strictly between shard 0's
  count and the full grid),
- zero pre-kill result entries were rewritten after the restart,
- the reconcile report is complete with no duplicate computes,
- the doctor finds a healthy store (no stale claims or temp debris),
- the store holds one copy of each result: no ``ckpt-*.json`` and no
  ``cache/`` subdirectory beside the ``result-*.json`` entries.

Writes ``benchmarks/output/BENCH_shard.json`` for ``repro bench diff``.

Usage::

    python benchmarks/check_shard.py
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
STORE = OUTPUT_DIR / "shard-store"
BENCH = OUTPUT_DIR / "BENCH_shard.json"

LAYERS = "Layer1,Layer2"
SCHEMES = "sparten,dense"
SEEDS = ",".join(str(s) for s in range(15))
UNITS = 2 * 2 * 15  # layers x schemes x seeds

#: Short claim TTL so the restart steals the dead worker's claim fast.
ENV_DEFAULTS = {"REPRO_CLAIM_TTL": "2", "REPRO_CLAIM_POLL": "0.02"}


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


def _entries() -> dict[str, int]:
    """Result entry name -> st_mtime_ns (the recompute detector)."""
    return {
        p.name: p.stat().st_mtime_ns for p in STORE.glob("result-*.json")
    }


def main(argv: list[str] | None = None) -> int:
    if STORE.exists():
        shutil.rmtree(STORE)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    print(f"check_shard: phase A -- shard 0/2 over {UNITS} units (no steal)")
    a = subprocess.run(_sweep_cmd("0/2", "--no-steal"), env=_env())
    if a.returncode != 0:
        print("check_shard: FAIL -- shard 0 sweep exited nonzero")
        return 1
    after_a = _entries()
    k0 = len(after_a)
    if not 0 < k0 < UNITS:
        print(f"check_shard: FAIL -- shard 0 published {k0} of {UNITS} "
              "entries; expected a strict subset (is --no-steal broken?)")
        return 1

    print(f"check_shard: phase B -- shard 1/2 starts, SIGKILL mid-run "
          f"(shard 0 published {k0})")
    victim = subprocess.Popen(_sweep_cmd("1/2", "--no-steal"), env=_env())
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if len(_entries()) >= k0 + 3:
            break  # actively publishing: kill now, mid-run
        if victim.poll() is not None:
            break  # finished before we could kill -- gated below
        time.sleep(0.005)
    killed_alive = victim.poll() is None
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=60)
    at_kill = _entries()
    k1 = len(at_kill)
    print(f"check_shard: killed shard 1 with {k1}/{UNITS} entries published "
          f"(alive at kill: {killed_alive})")
    if not (killed_alive and k0 < k1 < UNITS):
        print("check_shard: FAIL -- the kill did not land mid-run; the "
              "resume path was not exercised (grid too small or machine "
              "too fast -- raise the seed count).")
        return 1

    print("check_shard: phase C -- shard 1/2 restarts and reconciles")
    c = subprocess.run(
        _sweep_cmd("1/2", "--reconcile"), env=_env(),
        capture_output=True, text=True,
    )
    sys.stdout.write(c.stdout)
    sys.stderr.write(c.stderr)
    if c.returncode != 0:
        print("check_shard: FAIL -- restarted shard did not reconcile to "
              "complete + exactly-once")
        return 1

    final = _entries()
    rewritten = sorted(
        name for name, mtime in at_kill.items() if final.get(name) != mtime
    )
    recomputed = len(rewritten)
    if rewritten:
        print(f"check_shard: FAIL -- {recomputed} pre-kill result entries "
              f"were rewritten after the restart (first: {rewritten[0]}); "
              "the resume recomputed finished work.")

    # One copy of each result: a second tier (journal files or a nested
    # cache directory) would double every write.
    second_copies = sorted(p.name for p in STORE.glob("ckpt-*.json"))
    if (STORE / "cache").exists():
        second_copies.append("cache/")
    if second_copies:
        print(f"check_shard: FAIL -- the store holds a second result tier "
              f"beside result-*.json ({', '.join(second_copies[:3])}).")

    # The doctor must agree nothing stale survived (the dead worker's
    # claim was stolen and released, temp files were cleaned up).
    doctor = subprocess.run(
        [sys.executable, "-m", "repro", "doctor", str(STORE), "--prune"],
        env=_env(), capture_output=True, text=True,
    )
    doctor_ok = doctor.returncode == 0
    if not doctor_ok:
        sys.stdout.write(doctor.stdout)
        print("check_shard: FAIL -- doctor reports an unhealthy store after "
              "the sweep")

    payload = {
        "schema": "repro-bench/1",
        "units": UNITS,
        "kill_mid_run": int(killed_alive and k0 < k1 < UNITS),
        "published_before_kill": k1,
        "shard0_published": k0,
        "recomputed_after_restart": recomputed,
        "complete": int(c.returncode == 0),
        "doctor_ok": int(doctor_ok),
        "entries_final": len(final),
        "seconds_total": round(time.monotonic() - started, 2),
    }
    BENCH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"check_shard: wrote {BENCH}")

    if recomputed or not doctor_ok or second_copies:
        return 1
    print(f"check_shard: OK -- {UNITS} units, kill at {k1} entries, "
          f"{len(final)} published, 0 recomputed after restart "
          f"({payload['seconds_total']}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
