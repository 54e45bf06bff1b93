"""Kernel probes: public scalar and jet operations timed on fixed operands.

Wrapping ``CycloElem.__mul__`` would swamp the trace, so the traced run
times the kernels directly.  Operands come from a fixed seed, independent of
the workload seed, so every run times the same work: scalars with random
coordinates of height 9 at conductors 1, 6, 9, 10 and 18, and dense jets with
such coefficients at N = 16, 32 and 64.  Each probe reports the median over
``REPEATS`` timings of a batch of calls.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

from germlin.cyclotomic import CycloElem, euler_phi
from germlin.jets import Jet, RightComposer, jet_comp_inverse, jet_compose

PROBE_SEED = 20181015
REPEATS = 5


def _scalar(rng: random.Random, n: int) -> CycloElem:
    coords = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(euler_phi(n))]
    if not any(coords[1:]) and n > 1:
        coords[-1] = Fraction(1)
    return CycloElem(n, coords)


def _jet(rng: random.Random, N: int, n: int, constant: bool = False) -> Jet:
    coeffs = [_scalar(rng, n) for _ in range(N + 1)]
    coeffs[0] = CycloElem.from_rational(rng.randint(1, 9) if constant else 0, n)
    coeffs[1] = _scalar(rng, n)
    if coeffs[1].is_zero:
        coeffs[1] = CycloElem.from_rational(1, n)
    return Jet(coeffs, order=N, conductor=n)


def _time(fn, batch: int, scale: float, repeats: int) -> float:
    """Median time of one call, in units of 1/scale seconds."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(batch):
            fn()
        times.append((perf_counter() - t0) / batch)
    return statistics.median(times) * scale


def run_probes(tiny: bool = False) -> dict[str, tuple[float, str]]:
    rng = random.Random(PROBE_SEED)
    repeats = 1 if tiny else REPEATS
    shrink = 10 if tiny else 1
    out: dict[str, tuple[float, str]] = {}
    for n in (1, 6, 9, 10, 18):
        a, b = _scalar(rng, n), _scalar(rng, n)
        out[f"cyclotomic.mul_us.c{n}"] = (
            _time(lambda: a * b, 2000 // shrink, 1e6, repeats),
            "us",
        )
    for n in (6, 9, 10, 18):
        a = _scalar(rng, n)
        out[f"cyclotomic.inverse_us.c{n}"] = (
            _time(a.inverse, 40 // shrink, 1e6, repeats),
            "us",
        )
    for N in (16, 32, 64):
        for n in (1, 10):
            f, g = _jet(rng, N, n, constant=True), _jet(rng, N, n, constant=True)
            out[f"jets.mul_ms.N{N}.c{n}"] = (
                _time(lambda: f * g, max(1, 256 // (N * shrink)), 1e3, repeats),
                "ms",
            )
    for n in (1, 10):
        f, g = _jet(rng, 32, n, constant=True), _jet(rng, 32, n)
        out[f"jets.compose_ms.N32.c{n}"] = (_time(lambda: jet_compose(f, g), 1, 1e3, repeats), "ms")
    f = _jet(rng, 32, 10)
    out["jets.comp_inverse_ms.N32.c10"] = (_time(lambda: jet_comp_inverse(f), 1, 1e3, repeats), "ms")
    for N in (16, 32, 64):
        comp = RightComposer(_jet(rng, N, 10))
        w = _jet(rng, N, 10, constant=True)
        out[f"jets.right_compose_ms.N{N}.c10"] = (
            _time(lambda: comp(w), max(1, 64 // (N * shrink)), 1e3, repeats),
            "ms",
        )
    return out
