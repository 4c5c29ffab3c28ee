"""CI guard: a warm store answers from its result entries, never re-simulating.

Runs ``python -m repro run fig7 --manifest ...`` twice over one fresh
``REPRO_CACHE_DIR`` (each run a new process, so nothing survives in
memory) and fails unless the second run

1. prints exactly the figure rows the first one printed,
2. reports zero ``sim.*`` counts and zero ``kernel.*dispatch`` counts in
   its manifest -- no simulator and no match/reduce kernel ran, and
3. served results from the store (``cache.result.disk_hit`` > 0),
4. when the run configuration asks for more than one job, started no
   worker pool (``parallel.pool_start`` 0) and synthesized nothing (zero
   ``synthesize`` span calls): every fan-out item resolves from the store
   in the parent, so spawning workers would only re-import the program,

and unless the cold run left only ``result-*.json`` entries in the store
and wrote at most ``MAX_STORE_MB`` of them (``cache.disk.store_bytes``
in its manifest).

A store whose result tier silently went cold (a key that drifts between
processes, a codec that refuses a result, a reader that always misses)
still produces the right figures, just slowly; this makes it a CI
failure instead. The content and size checks do the same for a store
that grows back a second tier or a large member: the fig7 store is
~0.15 MB of result entries (40 of them). Workload entries added ~2.7 MB
of packed masks while the store kept them, ~48 MB while they held
counts tensors and ~72 MB with dense float64 tensors, all
deterministic. ``REPRO_JOBS`` and the other ``REPRO_*`` variables come
from the environment, so the job decides whether the warm run fans out.
The manifests land in ``benchmarks/output/warm-store-{cold,warm}.json``.

Usage::

    python benchmarks/check_warm_store.py
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
OUTPUT = HERE / "output"

#: The most store bytes (``cache.disk.store_bytes``) the cold run may write.
MAX_STORE_MB = 5.0


def _run(store: str, manifest: pathlib.Path) -> str:
    env = {**os.environ, "REPRO_CACHE_DIR": store}
    done = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig7", "--manifest", str(manifest)],
        env=env, capture_output=True, text=True, check=True,
    )
    return done.stdout


def main() -> int:
    from repro import config

    jobs = config.current().jobs
    OUTPUT.mkdir(parents=True, exist_ok=True)
    cold_manifest = OUTPUT / "warm-store-cold.json"
    warm_manifest = OUTPUT / "warm-store-warm.json"
    with tempfile.TemporaryDirectory(prefix="warm-store-") as store:
        cold = _run(store, cold_manifest)
        strays = sorted(
            p.name for p in pathlib.Path(store).iterdir()
            if not p.match("result-*.json")
        )
        warm = _run(store, warm_manifest)
    warm_doc = json.loads(warm_manifest.read_text())
    counters = warm_doc["counters"]
    synthesized = warm_doc["spans"].get("synthesize", {}).get("calls", 0)
    pools = counters.get("parallel.pool_start", 0)
    cold_counters = json.loads(cold_manifest.read_text())["counters"]
    store_mb = cold_counters.get("cache.disk.store_bytes", 0) / 1e6
    simulated = {k: v for k, v in counters.items() if k.startswith("sim.") and v}
    dispatched = {
        k: v for k, v in counters.items()
        if k.startswith("kernel.") and k.endswith("dispatch") and v
    }
    hits = counters.get("cache.result.disk_hit", 0)
    failures = []
    if warm != cold:
        failures.append("the warm run's figure rows differ from the cold run's")
    if strays:
        failures.append(
            f"the cold run left {len(strays)} file(s) other than result "
            f"entries in the store: {strays[:5]}"
        )
    if simulated:
        failures.append(f"the warm run simulated: {simulated}")
    if dispatched:
        failures.append(f"the warm run dispatched kernels: {dispatched}")
    if not hits > 0:
        failures.append("the warm run served no result from the store")
    if jobs > 1 and pools:
        failures.append(f"the warm run at {jobs} jobs started {pools:.0f} worker pool(s)")
    if jobs > 1 and synthesized:
        failures.append(f"the warm run synthesized {synthesized} layer(s)")
    if store_mb > MAX_STORE_MB:
        failures.append(
            f"the cold run wrote {store_mb:.1f} MB of store entries "
            f"(bound {MAX_STORE_MB:.0f} MB)"
        )
    for failure in failures:
        print(f"check_warm_store: FAIL -- {failure}")
    if failures:
        return 1
    print(
        f"check_warm_store: OK -- warm fig7 matched the cold rows with "
        f"{hits:.0f} results from the store, 0 simulations, 0 kernel dispatches, "
        f"{pools:.0f} pools at {jobs} jobs; the cold run wrote {store_mb:.1f} MB"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
