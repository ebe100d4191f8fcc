"""Deterministic random streams.

Every run owns exactly one stream.  The draw order is part of the simulation
contract: within a round the policy draws first (epsilon-greedy: one uniform
for the explore coin, then one uniform for the arm if exploring; Thompson:
one normal per arm in arm-index order), then the environment draws once for
the reward sample.  LaneStreams replays many NumpyRng streams together, in
the lockstep engine's two shapes of draw: normals for every lane, and one
uniform for some lanes.  Each lockstep group draws from its own LaneStreams,
and its normals may be a view of its blocks, valid until its next normal draw.
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


_BLOCK = 1024  # refill size; fixed, part of the seed->stream mapping


class NumpyRng:
    """PCG64-backed stream with block-buffered scalar draws.

    Given a seed, the sequence of uniform()/normal() results is a pure
    function of the call sequence, so identically seeded runs are bit-equal.
    """

    __slots__ = ("_gen", "_uniforms", "_normals")

    def __init__(self, seed: int):
        self._gen = np.random.default_rng(seed)
        # the next value of the current block of each kind; a draw that finds its
        # block used up draws the next _BLOCK values of that kind
        self._uniforms = iter(()).__next__
        self._normals = iter(()).__next__

    def uniform(self) -> float:
        try:
            return self._uniforms()
        except StopIteration:
            self._uniforms = iter(self._gen.random(_BLOCK).tolist()).__next__
            return self._uniforms()

    def normal(self) -> float:
        try:
            return self._normals()
        except StopIteration:
            self._normals = iter(self._gen.standard_normal(_BLOCK).tolist()).__next__
            return self._normals()


class _NormalBlocks:
    """Normals for every lane, from one `_BLOCK`-value block per lane.

    Every lane draws as often, so the lanes share one position, a draw is a
    slice, and a draw that finds the blocks used up refills them all.
    """

    __slots__ = ("_fills", "_buf", "_pos")

    def __init__(self, fills):
        self._fills = fills  # fills[j](out=row) writes lane j's next block into row
        self._buf = np.empty((len(fills), _BLOCK))
        self._pos = _BLOCK  # every lane's next draw; _BLOCK: used up

    def take(self, n: int) -> np.ndarray:
        """The next n draws of every lane, shape (lanes, n).

        Often a view of the blocks: it is valid until the next take.
        """
        pos = self._pos
        if pos + n <= _BLOCK:
            self._pos = pos + n
            return self._buf[:, pos:pos + n]
        rest = self._buf[:, pos:].copy()  # the blocks run out within this draw
        for fill, row in zip(self._fills, self._buf):
            fill(out=row)
        self._pos = 0
        return np.concatenate((rest, self.take(n - (_BLOCK - pos))), axis=1)


class _UniformBlocks:
    """One uniform for each drawing lane, from one `_BLOCK`-value block per lane.

    Each lane keeps its own position, and a draw refills only the used-up
    blocks of the lanes drawing.
    """

    __slots__ = ("_fills", "_buf", "_flat", "_start", "_pos", "_room")

    def __init__(self, fills):
        lanes = len(fills)
        self._fills = fills  # fills[j](out=row) writes lane j's next block into row
        self._buf = np.empty((lanes, _BLOCK))
        self._flat = self._buf.reshape(-1)
        self._start = np.arange(lanes) * _BLOCK  # flat index of each lane's block
        self._pos = np.full(lanes, _BLOCK)  # each lane's next draw; _BLOCK: used up
        self._room = 0  # draws left before a draw must look for used-up blocks

    def take(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """The next draw of each lane in `lanes` (all lanes if None)."""
        if not self._room:
            drawing = np.arange(len(self._pos)) if lanes is None else lanes
            for lane in drawing[self._pos[drawing] == _BLOCK].tolist():
                self._fills[lane](out=self._buf[lane])
                self._pos[lane] = 0
            # 1 while a lane that is not drawing is used up: the next draw looks again
            self._room = max(_BLOCK - int(self._pos.max()), 1)
        self._room -= 1
        rows = slice(None) if lanes is None else lanes
        at = self._start[rows] + self._pos[rows]
        self._pos[rows] += 1
        return self._flat[at]


class LaneStreams:
    """Many NumpyRng streams drawn together, one lane per stream.

    Lane j replays NumpyRng(seeds[j]) exactly: for any per-lane sequence of
    uniform/normal calls it returns the values NumpyRng would, because each
    lane refills its uniform and normal blocks at the same draws.  normal()
    and normals(n) draw for every lane, uniform(lanes) for the named lanes.
    The normals may be a view of the streams' blocks, valid until the next
    normal draw from the same LaneStreams.
    """

    __slots__ = ("_uniform", "_normal")

    def __init__(self, seeds):
        gens = [np.random.default_rng(s) for s in seeds]
        self._uniform = _UniformBlocks([g.random for g in gens])
        self._normal = _NormalBlocks([g.standard_normal for g in gens])

    def uniform(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """One uniform per lane in `lanes` (all lanes if None)."""
        return self._uniform.take(lanes)

    def normal(self) -> np.ndarray:
        """One standard normal per lane."""
        return self._normal.take(1)[:, 0]

    def normals(self, n: int) -> np.ndarray:
        """n consecutive standard normals per lane, shape (lanes, n)."""
        return self._normal.take(n)


class ScriptedRng:
    """Replays a fixed list of numbers, in call order, regardless of kind.

    Every value must be finite, and uniform() values must lie in [0, 1).
    Used for hand-checkable golden traces.
    """

    __slots__ = ("_values", "_pos")

    def __init__(self, values):
        self._values = [float(v) for v in values]
        if not np.isfinite(self._values).all():
            raise ValueError("scripted values must be finite")
        self._pos = 0

    @property
    def consumed(self) -> int:
        return self._pos

    def _next(self) -> float:
        if self._pos >= len(self._values):
            raise ScriptExhaustedError(f"scripted stream exhausted: draw {self._pos + 1} "
                                       f"requested but only {self._pos} values were supplied")
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
