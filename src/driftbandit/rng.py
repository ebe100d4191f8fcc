"""Deterministic random streams.

Every run owns exactly one stream.  The draw order is part of the simulation
contract: within a round the policy draws first (epsilon-greedy: one uniform
for the explore coin, then one uniform for the arm if exploring; Thompson:
one normal per arm in arm-index order), then the environment draws once for
the reward sample.  A seed's stream is its generator's `_BLOCK`-value blocks
of each kind, in the order they ran out.  NumpyRng hands them out one scalar
at a time; LaneStreams replays many NumpyRng streams together, in the lockstep
engine's two shapes of draw: normals for every lane, and one uniform for some
lanes.  Each lockstep group draws from its own LaneStreams, and its normals
may be a view of its blocks, valid until its next normal draw.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable, Protocol

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

    uniform() and normal() run through the generator's random(_BLOCK) and
    standard_normal(_BLOCK) blocks, and a block is drawn only when a draw finds
    the one before it used up.  So the sequence of results is a pure function of
    the seed and the call sequence, and identically seeded runs are bit-equal.
    """

    __slots__ = ("uniform", "normal")

    def __init__(self, seed: int):
        gen = np.random.default_rng(seed)
        self.uniform = _scalars(gen.random)
        self.normal = _scalars(gen.standard_normal)


def _scalars(draw) -> Callable[[], float]:
    """The next value of draw(_BLOCK), draw(_BLOCK), ... as a Python float."""
    return chain.from_iterable(map(np.ndarray.tolist, map(draw, repeat(_BLOCK)))).__next__


class LaneStreams:
    """Many NumpyRng streams drawn together, one lane per stream.

    Lane j replays NumpyRng(seeds[j]) exactly: for any per-lane sequence of
    uniform/normal calls it returns the values NumpyRng would, because each
    lane refills its uniform and normal blocks at the same draws.  Every lane
    draws as many normals, so the normal blocks share one position, a draw is
    a slice (a view of the blocks, valid until the next normal draw), and a
    draw that finds them used up refills them all.  Uniforms are drawn for
    some lanes, so each lane keeps its own uniform position, and a draw
    refills only the used-up blocks of the lanes drawing.
    """

    __slots__ = ("_gens", "_normals", "_npos", "_uniforms", "_flat", "_start", "_upos",
                 "_room")

    def __init__(self, seeds):
        self._gens = [np.random.default_rng(s) for s in seeds]
        lanes = len(self._gens)
        self._normals = np.empty((lanes, _BLOCK))
        self._npos = _BLOCK  # every lane's next normal; _BLOCK: used up
        self._uniforms = np.empty((lanes, _BLOCK))
        self._flat = self._uniforms.reshape(-1)
        self._start = np.arange(lanes) * _BLOCK  # flat index of each lane's uniform block
        self._upos = np.full(lanes, _BLOCK)  # each lane's next uniform; _BLOCK: used up
        self._room = 0  # uniform draws left before one must look for used-up blocks

    def uniform(self, lanes: np.ndarray | None = None) -> np.ndarray:
        """One uniform per lane in `lanes` (all lanes if None), as a new array.

        Each lane's value is its block's entry at its own position, which
        then moves on by one.  A draw for all lanes (egreedy's coin, Bernoulli
        rewards: every round) adds and bumps the whole start and position
        arrays, which costs less than indexing them; a draw for some lanes
        indexes them by `lanes`.
        """
        if not self._room:
            drawing = np.arange(len(self._gens)) if lanes is None else lanes
            for lane in drawing[self._upos[drawing] == _BLOCK].tolist():
                self._gens[lane].random(out=self._uniforms[lane])
                self._upos[lane] = 0
            # 1 while a lane that is not drawing is used up: the next draw looks again
            self._room = max(_BLOCK - int(self._upos.max()), 1)
        self._room -= 1
        if lanes is None:
            at = self._start + self._upos
            self._upos += 1
        else:
            at = self._start[lanes] + self._upos[lanes]
            self._upos[lanes] += 1
        return self._flat.take(at)

    def normal(self) -> np.ndarray:
        """One standard normal per lane."""
        pos = self._npos
        if pos < _BLOCK:
            self._npos = pos + 1
            return self._normals[:, pos]
        return self.normals(1)[:, 0]

    def normals(self, n: int) -> np.ndarray:
        """n consecutive standard normals per lane, shape (lanes, n)."""
        pos = self._npos
        if pos + n <= _BLOCK:
            self._npos = pos + n
            return self._normals[:, pos:pos + n]
        rest = self._normals[:, pos:].copy()  # the blocks run out within this draw
        for gen, row in zip(self._gens, self._normals):
            gen.standard_normal(out=row)
        self._npos = 0
        return np.concatenate((rest, self.normals(n - (_BLOCK - pos))), axis=1)


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
