"""FWALSH: fast Walsh-Hadamard transform (CUDA SDK `fastWalshTransform`).

Two kernels, as in the SDK: a shared-memory kernel performs the low-order
butterfly stages inside each block (barrier per stage), and a global-memory
kernel performs one high-order stage per launch with strided paired
accesses across blocks. Paper input: 512K-element data, 32-element kernel
(scaled here to 2K elements).

Injection sites: ``barrier:stage{k}`` (shared stages) and ``xblock``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.common import (
    Benchmark,
    Injection,
    LaunchSpec,
    NO_INJECTION,
    RunPlan,
    rng_for,
    scaled,
)
from repro.gpu.kernel import Kernel

_BLOCK_ELEMS = 256  # elements per shared-memory block transform
_BLOCK = 128        # threads per block (2 elements per thread)


def fwalsh_shared_kernel(ctx, g_data, inj):
    """Butterflies within one block's 256-element tile, in shared memory."""
    tid = ctx.tid_x
    base = ctx.block_id_x * _BLOCK_ELEMS
    sh = ctx.shared["tile"]

    for k in range(2):
        i = tid + k * ctx.block_dim.x
        v = yield ctx.load(g_data, base + i)
        yield ctx.store(sh, i, v)
    if inj.keep("barrier:store"):
        yield ctx.syncthreads()

    stride = 1
    stage = 0
    while stride < _BLOCK_ELEMS:
        # each thread handles one butterfly pair per stage
        pair = tid
        lo = (pair // stride) * (stride * 2) + (pair % stride)
        hi = lo + stride
        a = yield ctx.load(sh, lo)
        b = yield ctx.load(sh, hi)
        yield ctx.store(sh, lo, a + b)
        yield ctx.store(sh, hi, a - b)
        if inj.keep(f"barrier:stage{stage}"):
            yield ctx.syncthreads()
        stride <<= 1
        stage += 1

    for k in range(2):
        i = tid + k * ctx.block_dim.x
        v = yield ctx.load(sh, i)
        yield ctx.store(g_data, base + i, v)
        if inj.inject("xblock") and tid == 0 and k == 0:
            yield ctx.store(g_data, (base + _BLOCK_ELEMS) % g_data.length,
                            0.0)


def fwalsh_global_kernel(ctx, g_data, stride, inj):
    """One high-order butterfly stage directly in global memory."""
    pair = ctx.global_tid_x
    if pair >= g_data.length // 2:
        return
    lo = (pair // stride) * (stride * 2) + (pair % stride)
    hi = lo + stride
    a = yield ctx.load(g_data, lo)
    b = yield ctx.load(g_data, hi)
    yield ctx.store(g_data, lo, a + b)
    yield ctx.store(g_data, hi, a - b)


def _reference_fwht(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    h = 1
    while h < len(out):
        for i in range(0, len(out), h * 2):
            for j in range(i, i + h):
                a, b = out[j], out[j + h]
                out[j], out[j + h] = a + b, a - b
        h *= 2
    return out


def build(sim, scale: float = 1.0, seed: int = 0,
          injection: Injection = NO_INJECTION) -> RunPlan:
    n = scaled(2048, scale, minimum=_BLOCK_ELEMS, multiple=_BLOCK_ELEMS)
    n = 1 << (n.bit_length() - 1)  # the transform needs a power of two
    rng = rng_for(seed)
    data = rng.integers(-8, 8, size=n).astype(np.float64)

    g_data = sim.malloc("fwalsh_data", n)
    g_data.host_write(data)

    shared_kernel = Kernel(fwalsh_shared_kernel, name="fwalsh_shared",
                           shared={"tile": (_BLOCK_ELEMS, 4)})
    global_kernel = Kernel(fwalsh_global_kernel, name="fwalsh_global")

    launches = [LaunchSpec(shared_kernel, grid=n // _BLOCK_ELEMS,
                           block=_BLOCK, args=(g_data, injection))]
    stride = _BLOCK_ELEMS
    pairs = n // 2
    while stride < n:
        launches.append(LaunchSpec(
            global_kernel, grid=max(1, pairs // _BLOCK), block=_BLOCK,
            args=(g_data, stride, injection),
        ))
        stride <<= 1

    expected = _reference_fwht(data)

    def verify() -> None:
        got = g_data.host_read()
        assert np.allclose(got, expected), (
            f"fwalsh mismatch: {got[:8]} vs {expected[:8]}"
        )

    return RunPlan(
        name="FWALSH",
        launches=launches,
        verify=verify,
        data_bytes=n * 4,
    )


BENCHMARK = Benchmark(
    name="FWALSH",
    paper_input="data length 512K, kernel length 32",
    scaled_input="2K elements, 256-element shared tiles",
    build=build,
    injection_sites={
        "barrier:store": "barrier",
        **{f"barrier:stage{k}": "barrier" for k in range(8)},
        "xblock": "xblock",
    },
    description="fast Walsh-Hadamard transform, shared + global stages",
)
