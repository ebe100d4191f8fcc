"""Deterministic scalar random streams.

Every run owns exactly one stream.  The draw order is part of the simulation
contract: within a round the policy draws first (epsilon-greedy: one uniform
for the explore coin, then one uniform for the arm if exploring; Thompson:
one normal per arm in arm-index order), then the environment draws once for
the reward sample.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np


class RngStream(Protocol):
    """Scalar draw interface shared by the production and scripted streams."""

    def uniform(self) -> float:
        """Next value in [0, 1)."""
        ...

    def normal(self) -> float:
        """Next standard normal value."""
        ...


class ScriptExhaustedError(Exception):
    """A scripted stream ran out of supplied values."""

    def __init__(self, supplied: int):
        self.supplied = supplied
        super().__init__(
            f"scripted stream exhausted: draw {supplied + 1} requested "
            f"but only {supplied} values were supplied"
        )


_BLOCK = 1024  # refill size; fixed, part of the seed->stream mapping


class NumpyRng:
    """PCG64-backed stream with block-buffered scalar draws.

    Given a seed, the sequence of uniform()/normal() results is a pure
    function of the call sequence, so identically seeded runs are bit-equal.
    """

    __slots__ = ("_gen", "_ubuf", "_upos", "_nbuf", "_npos")

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        self._ubuf: list[float] = []
        self._upos = 0
        self._nbuf: list[float] = []
        self._npos = 0

    def uniform(self) -> float:
        if self._upos >= len(self._ubuf):
            self._ubuf = self._gen.random(_BLOCK).tolist()
            self._upos = 0
        v = self._ubuf[self._upos]
        self._upos += 1
        return v

    def normal(self) -> float:
        if self._npos >= len(self._nbuf):
            self._nbuf = self._gen.standard_normal(_BLOCK).tolist()
            self._npos = 0
        v = self._nbuf[self._npos]
        self._npos += 1
        return v


class _LaneBlocks:
    """One kind of draw (uniform or normal) for many lanes, each with its own block.

    Lane j holds a `_BLOCK`-value block like NumpyRng's buffer and refills it
    from fills[j] when a draw finds it used up, so the refills of the two
    kinds interleave on each lane's generator exactly as in NumpyRng.  While
    every lane has drawn equally often, the lanes share one position and a
    draw is a slice of all blocks.
    """

    __slots__ = ("_fills", "_buf", "_flat", "_start", "_pos", "_step", "_room")

    def __init__(self, fills):
        lanes = len(fills)
        self._fills = fills  # fills[j](out=row) writes lane j's next block into row
        self._buf = np.empty((lanes, _BLOCK))
        self._flat = self._buf.reshape(-1)
        self._start = np.arange(lanes) * _BLOCK  # flat index of each lane's block
        self._pos = np.full(lanes, _BLOCK)  # each lane's next draw; _BLOCK: used up
        self._step: int | None = _BLOCK  # the lanes' common position, or None; then _pos is stale
        self._room = 0  # draws every lane can take before its block runs out

    def take(self, n: int, lanes: np.ndarray | None = None) -> np.ndarray:
        """The next n draws of each lane in `lanes` (all lanes if None), shape (lanes, n)."""
        step = self._step
        if step is not None:
            if lanes is None:
                return self._take_shared(step, n)
            self._pos.fill(step)
            self._step = None
            self._room = _BLOCK - step
        if self._room < n:
            self._room = _BLOCK - int(self._pos.max())
            if self._room < n:
                return self._take_near_refill(n, lanes)
        self._room -= n
        return self._gather(n, lanes)

    def _take_shared(self, step: int, n: int) -> np.ndarray:
        # every lane at `step`: slice all blocks, refilling all at a draw that finds them used up
        if step + n <= _BLOCK:
            self._step = step + n
            return self._buf[:, step:step + n].copy()
        out = np.empty((len(self._buf), n))
        done = 0
        while done < n:
            if step == _BLOCK:
                for fill, row in zip(self._fills, self._buf):
                    fill(out=row)
                step = 0
            got = min(n - done, _BLOCK - step)
            out[:, done:done + got] = self._buf[:, step:step + got]
            done += got
            step += got
        self._step = step
        return out

    def _gather(self, n: int, lanes) -> np.ndarray:
        if lanes is None:
            at = self._start + self._pos
            self._pos += n
        else:
            at = self._start[lanes] + self._pos[lanes]
            self._pos[lanes] += n
        if n == 1:
            return self._flat[at][:, None]
        return self._flat[at[:, None] + np.arange(n)]

    def _take_near_refill(self, n: int, lanes) -> np.ndarray:
        rows = np.arange(len(self._pos)) if lanes is None else lanes
        for lane in rows[self._pos[rows] == _BLOCK].tolist():
            self._fills[lane](out=self._buf[lane])  # used up: refilled at this draw
            self._pos[lane] = 0
        if (self._pos[rows] + n > _BLOCK).any():  # a block runs out within the n draws
            out = np.array([self._take_one(lane, n) for lane in rows.tolist()]).reshape(-1, n)
        else:
            out = self._gather(n, lanes)
        self._room = _BLOCK - int(self._pos.max())
        if lanes is None and (self._pos == self._pos[0]).all():
            self._step = int(self._pos[0])
        return out

    def _take_one(self, lane: int, n: int) -> np.ndarray:
        # NumpyRng's order: use up the block, then refill at the next draw
        buf = self._buf[lane]
        pos = int(self._pos[lane])
        parts = []
        while n:
            if pos >= _BLOCK:
                self._fills[lane](out=buf)
                pos = 0
            got = min(n, _BLOCK - pos)
            parts.append(buf[pos:pos + got].copy())
            pos += got
            n -= got
        self._pos[lane] = pos
        return np.concatenate(parts)


class LaneStreams:
    """Many NumpyRng streams drawn together, one lane per stream.

    Lane j replays NumpyRng(seeds[j]) exactly: for any per-lane sequence of
    uniform/normal calls it returns the values NumpyRng would, because each
    lane refills its uniform and normal blocks at the same draws.  Every lane
    draws, except in uniform(lanes), which draws for the named lanes only.
    """

    __slots__ = ("_uniform", "_normal")

    def __init__(self, seeds):
        gens = [np.random.default_rng(s) for s in seeds]
        self._uniform = _LaneBlocks([g.random for g in gens])
        self._normal = _LaneBlocks([g.standard_normal for g in gens])

    def uniform(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """One uniform per lane in `lanes`."""
        return self._uniform.take(1, lanes)[:, 0]

    def normal(self) -> np.ndarray:
        """One standard normal per lane."""
        return self._normal.take(1)[:, 0]

    def normals(self, n: int) -> np.ndarray:
        """n consecutive standard normals per lane, shape (lanes, n)."""
        return self._normal.take(n)


class ScriptedRng:
    """Replays a fixed list of numbers, in call order, regardless of kind.

    uniform() values must lie in [0, 1); normal() values are unrestricted.
    Used for hand-checkable golden traces.
    """

    __slots__ = ("_values", "_pos")

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self._pos = 0

    @property
    def consumed(self) -> int:
        return self._pos

    def _next(self) -> float:
        if self._pos >= len(self._values):
            raise ScriptExhaustedError(len(self._values))
        v = self._values[self._pos]
        self._pos += 1
        return v

    def uniform(self) -> float:
        v = self._next()
        if not 0.0 <= v < 1.0:
            raise ValueError(f"scripted uniform draw {v} outside [0, 1)")
        return v

    def normal(self) -> float:
        return self._next()
