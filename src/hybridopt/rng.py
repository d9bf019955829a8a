"""Counter-based random streams.

Every stream is keyed by (seed, block, role), realized as a Philox generator
with key = [block, seed] and the role placed in the top counter word (streams
for different roles start 2**192 blocks apart, so they never overlap); see
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11).

A block serves ``BLOCK_PATHS`` consecutive paths: path p reads row
``p % BLOCK_PATHS`` of the block ``p // BLOCK_PATHS``.  Rows are laid out one
after another in the stream, as (rows, n_steps, dim) for the Brownian role and
(rows, n_steps) for the switch role, so the first r rows of a block are a
prefix of its sequence.  Draws for one path therefore never depend on how many
other paths are simulated, which worker processed them, or in what order --
the property the reproducibility and worker-count determinism tests rely on.
"""
from __future__ import annotations

import numpy as np

ROLE_BROWNIAN = 0
ROLE_SWITCH = 1
ROLE_VALIDATE = 2

#: Paths per stream block; fixed, since changing it changes every draw.
BLOCK_PATHS = 4096
#: Names the mapping from (seed, path, step) to draws; part of a run's hash.
STREAM_LAYOUT = f"philox-block-{BLOCK_PATHS}"

_MASK64 = (1 << 64) - 1


def stream(seed: int, block: int, role: int) -> np.random.Generator:
    """Generator for the (seed, block, role) stream."""
    key = np.array([block & _MASK64, seed & _MASK64], dtype=np.uint64)
    counter = np.array([0, 0, 0, role & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _rows_of(draw, rows: range, shape: tuple, out) -> np.ndarray:
    """Rows ``rows`` of a block whose row has ``shape``.  A prefix is drawn
    straight into ``out``; other ranges draw the prefix up to ``rows.stop``
    and copy out the rows asked for."""
    if rows.stop > BLOCK_PATHS:
        raise ValueError(f"rows {rows} run past the {BLOCK_PATHS} paths of a block")
    if out is None:
        out = np.empty((len(rows),) + shape)
    if rows.start == 0:
        draw(out=out)
    else:
        prefix = np.empty((rows.stop,) + shape)
        draw(out=prefix)
        out[...] = prefix[rows.start :]
    return out


def brownian_increments(seed: int, block: int, rows: range, n_steps: int, dim: int, dt: float, out=None) -> np.ndarray:
    """Increments of a dim-dimensional Brownian motion on n_steps steps of size
    dt for the paths ``rows`` of ``block``, shape (len(rows), n_steps, dim)."""
    g = stream(seed, block, ROLE_BROWNIAN)
    out = _rows_of(g.standard_normal, rows, (n_steps, dim), out)
    out *= np.sqrt(dt)
    return out


def switch_uniforms(seed: int, block: int, rows: range, n_steps: int, out=None) -> np.ndarray:
    """Uniform [0, 1) draws feeding the per-step regime transition sampler for
    the paths ``rows`` of ``block``, shape (len(rows), n_steps)."""
    g = stream(seed, block, ROLE_SWITCH)
    return _rows_of(g.random, rows, (n_steps,), out)
