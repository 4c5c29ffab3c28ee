"""CI guard: the kernel benchmarks must exercise the native kernels.

Reads the manifest the benchmark session wrote (``benchmarks/output/
manifest.json`` by default) and fails when it reports zero
``kernel.native_dispatch`` counts -- that means every match-count call
silently fell back to the GEMM path, so the benchmark numbers no longer
measure what CI thinks they measure. On a native-capable runner the
same goes for ``kernel.reduce_native_dispatch``: zero means every
scheme reduction fell back to the blocked NumPy path. And any
``kernel.reduce_relayout`` count fails it: the native reduction had to
copy a position-major counts tensor into its filter-major layout, so the
fast path the benchmarks time was not the one that ran. The check is
skipped when ``REPRO_NO_NATIVE`` is set (the fallback is then
intentional).

Usage::

    python benchmarks/check_manifest.py [path/to/manifest.json]
"""

from __future__ import annotations

import os
import sys

from repro import telemetry
from repro.sim import native

DEFAULT = os.path.join(os.path.dirname(__file__), "output", "manifest.json")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else DEFAULT
    if os.environ.get("REPRO_NO_NATIVE"):
        print(f"check_manifest: REPRO_NO_NATIVE set, skipping ({path})")
        return 0
    try:
        manifest = telemetry.read_manifest(path)
    except (OSError, ValueError) as exc:
        print(f"check_manifest: cannot read manifest {path}: {exc}")
        return 2
    counters = manifest.get("counters", {})
    native_calls = counters.get("kernel.native_dispatch", 0)
    gemm_calls = counters.get("kernel.gemm_dispatch", 0)
    reduce_native = counters.get("kernel.reduce_native_dispatch", 0)
    reduce_fallback = counters.get("kernel.reduce_fallback_dispatch", 0)
    relayouts = counters.get("kernel.reduce_relayout", 0)
    if native_calls <= 0:
        print(
            f"check_manifest: FAIL -- manifest {path} reports zero native-kernel "
            f"dispatches ({int(gemm_calls)} GEMM fallbacks); the benchmark run "
            "never hit the compiled popcount kernel."
        )
        _explain_native()
        return 1
    if native.available() and reduce_native <= 0:
        print(
            f"check_manifest: FAIL -- manifest {path} reports zero native "
            f"reduction dispatches ({int(reduce_fallback)} NumPy fallbacks) on "
            "a native-capable runner; every scheme reduction bypassed the "
            "compiled engine."
        )
        _explain_native()
        return 1
    if relayouts > 0:
        print(
            f"check_manifest: FAIL -- manifest {path} reports {int(relayouts)} "
            "native reductions that first copied position-major counts into "
            "the filter-major layout; some caller bypassed compute_chunk_work's "
            "counts storage."
        )
        return 1
    print(
        f"check_manifest: OK -- {int(native_calls)} native dispatches "
        f"({int(gemm_calls)} GEMM), {int(reduce_native)} native reductions "
        f"({int(reduce_fallback)} NumPy) in {path}"
    )
    return 0


def _explain_native() -> None:
    error = native.load_error()
    if error:
        print(f"check_manifest: native load error: {error}")
    print("check_manifest: set REPRO_NO_NATIVE=1 if the fallback is intended.")


if __name__ == "__main__":
    raise SystemExit(main())
