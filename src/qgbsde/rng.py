"""Counter-based Gaussian draws, reproducible under any path blocking.

Each path owns a fixed range of Philox counter blocks derived from its index
alone, so splitting the path set across workers (or changing the block size)
cannot change a single draw. Normals come from the inverse CDF applied to
Philox uniforms; inverse CDF consumes a fixed number of counter values per
draw, unlike ziggurat sampling, which is what makes absolute counter
arithmetic possible.

numpy's Philox.advance(k) moves k whole 256-bit counter increments, i.e.
4 k single 64-bit draws, so every path is padded to a whole number of 4-draw
blocks (at most 3 draws per path are discarded).

scipy (for scipy.special.ndtri, the inverse normal CDF) and numpy.random
(for Philox) are imported at the first draw, not with the module: scipy
costs about 18 MB resident and a few tenths of a second, numpy.random a few
MB and about 10 ms, and a command that reads its ensemble from the cache
draws nothing, so it loads neither. The thread pool (concurrent.futures) is
imported only when workers > 1 share more than one block.
"""

from __future__ import annotations

import numpy as np

_DRAWS_PER_ADVANCE = 4
# One block's normals, 8 * _DEFAULT_BLOCK * 4 ceil(N d / 4) bytes, sit on top
# of the states: 16.8 MB at N = 256, d = 1, against 67 MB at 32768 paths. At
# 100k x 256, 8192 paths simulate no slower than 16384 or 32768, and 4096
# lowered no perfbench peak RSS further.
_DEFAULT_BLOCK = 8192
_MIN_UNIFORM = 2.0 ** -54  # ndtri(0) is -inf; clip the (prob 2^-53) zero draw


def _blocks_per_path(n_steps: int, d: int) -> int:
    return -(-(n_steps * d) // _DRAWS_PER_ADVANCE)


def _fill_block(seed, p0, p1, n_steps, d):
    """Standard normals (p1 - p0, n_steps, d) of the paths [p0, p1), the
    value at [p - p0, i, j] a function of (seed, p, i, j) alone; computed in
    place on the uniforms, so no second block-sized array exists."""
    # every draw passes here; see the module doc
    from numpy.random import Generator, Philox
    from scipy.special import ndtri

    bpp = _blocks_per_path(n_steps, d)
    bg = Philox(key=seed)
    bg.advance(p0 * bpp)
    u = Generator(bg).random((p1 - p0, bpp * _DRAWS_PER_ADVANCE))
    np.maximum(u, _MIN_UNIFORM, out=u)
    ndtri(u, out=u)
    return u[:, : n_steps * d].reshape(p1 - p0, n_steps, d)


def _run_blocks(fill, n_paths: int, workers: int) -> None:
    """Call fill(a, b) on each block [a, b) of at most _DEFAULT_BLOCK paths,
    in order on the calling thread when workers is 1 or there is one block,
    else on a pool of workers threads. Each call must write only its own
    paths, so the schedule cannot change the result. The block is small so
    that a fill's own arrays (one block of normals in the forward pass) stay
    small beside the states it writes; each running worker holds one."""
    edges = list(range(0, n_paths, _DEFAULT_BLOCK)) + [n_paths]
    spans = list(zip(edges[:-1], edges[1:]))
    if workers == 1 or len(spans) == 1:
        for a, b in spans:
            fill(a, b)
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(fill, a, b) for a, b in spans]:
                fut.result()
