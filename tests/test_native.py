"""The compiled kernels' build: portable flags and the library cache key.

The default build uses ``-march=native``, so on an AVX2 host the vector
blocks run and the scalar loops only see the position tails. Compiling
the same source with the fallback flag set (no ``-march``) exercises the
scalar match and reduce loops on every position, against the NumPy
paths. The cache key must name the CPU, so a cache directory shared
between hosts never serves one host's instructions to another.
"""

from __future__ import annotations

import ctypes
import pathlib
import platform
import subprocess

import numpy as np
import pytest

from repro.nets.layers import ConvLayerSpec
from repro.nets.synthesis import synthesize_layer
from repro.sim import native, reduce
from repro.sim.config import HardwareConfig
from repro.sim.kernels import compute_chunk_work, count_dtype
from tests.test_reduction import _random_rspec


@pytest.fixture(scope="module")
def portable_lib(tmp_path_factory):
    cc = native._compiler()
    if cc is None:
        pytest.skip("no C compiler")
    build = tmp_path_factory.mktemp("portable")
    src = build / "kernel.c"
    src.write_text(native._C_SOURCE)
    out = build / "kernel.so"
    cmd = [cc, "-shared", "-fPIC", *native._FLAG_SETS[-1], "-o", str(out), str(src)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return native._bind(ctypes.CDLL(str(out)))


@pytest.mark.parametrize("chunk_size", (16, 100, 256))
def test_portable_match_equals_gemm(portable_lib, chunk_size, monkeypatch):
    spec = ConvLayerSpec(
        name="portable", in_height=9, in_width=8, in_channels=150, kernel=3,
        n_filters=13, padding=1, input_density=0.6, filter_density=0.5,
    )
    cfg = HardwareConfig(
        name="portable", n_clusters=3, units_per_cluster=4, chunk_size=chunk_size
    )
    data = synthesize_layer(spec, seed=2)
    monkeypatch.setattr(native, "_load", lambda: portable_lib)
    got = compute_chunk_work(data, cfg, need_counts=True)
    monkeypatch.setattr(native, "_load", lambda: None)
    want = compute_chunk_work(data, cfg, need_counts=True)
    assert got.counts.dtype == want.counts.dtype == count_dtype(chunk_size)
    assert np.array_equal(got.counts, want.counts)
    assert np.array_equal(got.match_sums, want.match_sums)


@pytest.mark.parametrize("chunk_size", (64, 255, 256, 1 << 16))
@pytest.mark.parametrize(
    "shape", ("order", "dynamic", "static", "chunk", "chunk_floors")
)
def test_portable_reduce_equals_numpy(portable_lib, shape, chunk_size, monkeypatch):
    monkeypatch.setattr(native, "_load", lambda: portable_lib)
    rng = np.random.default_rng(chunk_size)
    dtype = count_dtype(chunk_size)
    for _ in range(10):
        n_chunks = int(rng.integers(1, 6))
        n_sel = int(rng.integers(1, 30))  # several 8-position blocks + tails
        n_filters = int(rng.integers(1, 60))
        units = int(rng.integers(1, 9))
        counts = rng.integers(0, chunk_size + 1, (n_chunks, n_filters, n_sel))
        counts = counts.astype(dtype).transpose(0, 2, 1)
        rspec = _random_rspec(rng, shape, n_chunks, n_filters, units)
        got = native.reduce_pairs(
            counts,
            rspec.pair_a,
            rspec.pair_b,
            rspec.floors,
            rspec.rows_per_group,
            rspec.dyn_units,
        )
        want = reduce._reduce_counts_numpy(counts, rspec)
        assert np.array_equal(got[0], want.barrier)
        assert np.array_equal(got[1], want.busy)
        assert np.array_equal(got[2], want.permute)


def test_library_path_names_the_cpu(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
    monkeypatch.setattr(native, "_cpu_identity", lambda: "x86_64 sse2 avx2")
    avx2 = native._lib_path("cc")
    assert native._lib_path("cc") == avx2
    monkeypatch.setattr(native, "_cpu_identity", lambda: "x86_64 sse2")
    baseline = native._lib_path("cc")
    assert baseline != avx2
    assert baseline.parent == avx2.parent == tmp_path


def test_cpu_identity_names_the_machine_and_its_flags():
    identity = native._cpu_identity()
    assert identity.startswith(platform.machine())
    cpuinfo = pathlib.Path("/proc/cpuinfo")
    if cpuinfo.exists() and "flags" in cpuinfo.read_text(errors="replace"):
        assert len(identity.split()) > 1
