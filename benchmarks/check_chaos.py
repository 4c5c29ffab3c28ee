"""CI guard: the chaos run must actually exercise the resilience machinery.

Runs ``headline_means`` four times -- once serially with no faults (the
clean baseline; the serial path never injects), once fanned out with
``REPRO_FAULT`` crashes armed, once fanned out under a pinned
``worker_kill`` that breaks the pool mid-run, and once more fanned out in
the same process with the fault disarmed -- then fails unless

1. the crash-faulted figures are byte-identical to the clean ones, and
   the run manifest reports a nonzero retry count;
2. the killed run's figures are byte-identical to the clean ones, it
   reports a nonzero ``pool_fallback``, and the broken pool was retired;
3. the follow-up fan-out starts exactly one fresh pool and finishes
   without a fallback, with byte-identical figures.

A chaos job whose faults never fire tests nothing: injection rates are
seeded (``REPRO_FAULT_SEED``), so the defaults below are pinned to a
seed verified to fire at the 10% rate. The manifest is written to
``benchmarks/output/chaos-manifest.json`` for the CI artifact.

Usage::

    python benchmarks/check_chaos.py

Any ``REPRO_*`` variable already in the environment wins over the
defaults, so the job can be re-run locally with different rates.
"""

from __future__ import annotations

import json
import os
import sys
import warnings

OUTPUT = os.path.join(os.path.dirname(__file__), "output", "chaos-manifest.json")

#: Chaos configuration; environment overrides these per-variable.
DEFAULTS = {
    "REPRO_JOBS": "2",
    "REPRO_RETRIES": "3",
    "REPRO_RETRY_BACKOFF": "0",
    "REPRO_FAULT": "worker_crash:0.1",
    # Pinned: at the 10% rate, seed 23 fires on two of the three
    # network-level items and every retry attempt draws clear -- the
    # rate is a pure function of (seed, kind, token, attempt), so this
    # never flakes. Re-verify with a sweep over seeds if the fan-out
    # shape changes.
    "REPRO_FAULT_SEED": "23",
}


#: Kill phase, pinned: at this rate seed 4 fires on the third network
#: only, so one worker dies after another item has completed and the
#: completed-items-kept path runs too. Not overridable from the
#: environment -- the phase checks that a fallback happened.
KILL = {"REPRO_FAULT": "worker_kill:0.3", "REPRO_FAULT_SEED": "4"}


def _figure_values(fig: dict) -> str:
    """Canonical bytes of a headline dict minus instrumentation."""
    return json.dumps({k: v for k, v in fig.items() if k != "extras"}, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    from repro import telemetry
    from repro.core.workload import clear_caches
    from repro.eval.experiments import headline_means

    chaos_jobs = os.environ.get("REPRO_JOBS", DEFAULTS["REPRO_JOBS"])

    # Clean serial baseline: jobs=1 takes the serial path, which never
    # injects, so the baseline is valid even with REPRO_FAULT exported.
    os.environ["REPRO_JOBS"] = "1"
    clear_caches()
    telemetry.reset()
    clean = _figure_values(headline_means(fast=True, seed=0))

    for var, value in DEFAULTS.items():
        os.environ.setdefault(var, value)
    os.environ["REPRO_JOBS"] = chaos_jobs
    clear_caches()
    telemetry.reset()
    with warnings.catch_warnings():
        # A pool death mid-chaos is an exercised degradation path, not noise.
        warnings.simplefilter("ignore", RuntimeWarning)
        faulted = headline_means(fast=True, seed=0)

    os.makedirs(os.path.dirname(OUTPUT), exist_ok=True)
    manifest = telemetry.write_manifest(
        OUTPUT, seed=0, config={"chaos": {k: os.environ.get(k) for k in DEFAULTS}}
    )
    summary = manifest.get("resilience", {})
    print(f"check_chaos: fault spec {os.environ['REPRO_FAULT']} "
          f"(seed {os.environ['REPRO_FAULT_SEED']}, "
          f"jobs {os.environ['REPRO_JOBS']})")
    print(f"check_chaos: resilience summary {json.dumps(summary, sort_keys=True)}")

    if _figure_values(faulted) != clean:
        print("check_chaos: FAIL -- faulted figures differ from the clean "
              "serial baseline; the resilience layer changed an answer.")
        return 1
    if not summary.get("retries"):
        print("check_chaos: FAIL -- manifest reports zero retries; the "
              "injected crashes never exercised the retry path (dead chaos "
              "config -- check REPRO_FAULT / REPRO_FAULT_SEED).")
        return 1
    print(f"check_chaos: OK -- figures identical under faults, "
          f"{int(summary['retries'])} retries absorbed ({OUTPUT})")
    return _kill_phase(clean, chaos_jobs)


def _kill_phase(clean: str, jobs: str) -> int:
    """A worker kill costs a fallback; the next fan-out gets a fresh pool."""
    from repro import telemetry
    from repro.core import parallel
    from repro.core.workload import clear_caches
    from repro.eval.experiments import headline_means

    os.environ.update(KILL, REPRO_JOBS=jobs)
    clear_caches()
    telemetry.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        killed = headline_means(fast=True, seed=0)
    fallbacks = telemetry.get_recorder().counters().get("pool_fallback", 0)
    print(f"check_chaos: kill phase {KILL['REPRO_FAULT']} "
          f"(seed {KILL['REPRO_FAULT_SEED']}, jobs {jobs}): "
          f"{int(fallbacks)} pool fallback(s)")
    if _figure_values(killed) != clean:
        print("check_chaos: FAIL -- figures after a worker kill differ from "
              "the clean serial baseline.")
        return 1
    if not fallbacks:
        print("check_chaos: FAIL -- the pinned worker_kill never broke the "
              "pool (zero pool_fallback); the kill phase tested nothing.")
        return 1
    if parallel._POOL is not None:
        print("check_chaos: FAIL -- the broken pool was not retired.")
        return 1

    del os.environ["REPRO_FAULT"]
    telemetry.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        recovered = headline_means(fast=True, seed=0)
    counters = telemetry.get_recorder().counters()
    starts = counters.get("parallel.pool_start", 0)
    print(f"check_chaos: follow-up fan-out started {int(starts)} pool(s), "
          f"{int(counters.get('pool_fallback', 0))} fallback(s)")
    if _figure_values(recovered) != clean:
        print("check_chaos: FAIL -- the follow-up fan-out changed an answer.")
        return 1
    if starts != 1 or counters.get("pool_fallback"):
        print("check_chaos: FAIL -- the follow-up fan-out did not finish on "
              "one fresh pool without a fallback.")
        return 1
    print("check_chaos: OK -- kill absorbed by a fallback, next fan-out "
          "finished on a fresh pool")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
