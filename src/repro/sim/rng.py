"""Seeded random-number streams.

Every stochastic component draws from its own named stream derived from one
root seed, so adding a new component never perturbs the draws of existing
ones and whole experiments replay bit-identically.

A stream is read one of two ways, fixed by the first request for its
name:

* :meth:`RandomStreams.stream` returns the ``numpy`` generator itself,
  for readers that mix distributions (a uniform per burst and an
  exponential per packet, integers and exponentials, ...).
* :meth:`RandomStreams.exponentials` returns an :class:`ExponentialDraws`
  for readers that only ever draw exponentials.  It takes
  ``standard_exponential`` values from the generator in blocks of
  ``EXPONENTIAL_BLOCK`` and scales each one as it is handed out, which
  equals a scalar ``Generator.exponential(scale)`` call draw for draw.
  A scalar call costs about five times the host time of a block draw,
  and ``cProfile`` does not see it: numpy's Cython method is charged to
  its caller's self time.

Asking for one name both ways raises ``ValueError``: a block drawn ahead
would shift every draw a generator reader takes after it.  Readers that
share a name through :meth:`~RandomStreams.exponentials` share one
:class:`ExponentialDraws`, so interleaved readers still see the scalar
sequence.
"""

import numpy as np

#: ``standard_exponential`` values taken from a generator at a time.
EXPONENTIAL_BLOCK = 256


class ExponentialDraws:
    """Exponential draws served from blocks of one generator's output.

    ``draw(scale)`` returns ``scale * x``, ``x`` the next value of a block
    of ``standard_exponential`` draws (the first block is drawn at the
    first ``draw``).  ``Generator.exponential(scale)`` computes exactly
    that product in double precision, so the values are the scalar
    sequence for any mix of int and float scales.  ``draw`` returns a
    Python ``float`` where the scalar call returns a ``numpy.float64`` of
    the same value.
    """

    __slots__ = ("_generator", "_block")

    def __init__(self, generator):
        self._generator = generator
        self._block = []        # undrawn values of the current block, reversed

    def draw(self, scale):
        """The next exponential draw with mean ``scale``."""
        block = self._block
        if not block:
            block = self._block = self._generator.standard_exponential(
                size=EXPONENTIAL_BLOCK)[::-1].tolist()
        return scale * block.pop()


class RandomStreams:
    """A factory of independent, reproducible ``numpy`` generators."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}
        self._exponentials = {}

    def stream(self, name):
        """Return the generator for ``name``, creating it deterministically."""
        generator = self._streams.get(name)
        if generator is None:
            if name in self._exponentials:
                raise ValueError(
                    f"stream {name!r} is already read through exponentials()")
            generator = self._streams[name] = self._generator(name)
        return generator

    def exponentials(self, name):
        """Return the shared :class:`ExponentialDraws` for ``name``."""
        draws = self._exponentials.get(name)
        if draws is None:
            if name in self._streams:
                raise ValueError(
                    f"stream {name!r} is already read through stream()")
            draws = self._exponentials[name] = ExponentialDraws(
                self._generator(name))
        return draws

    def _generator(self, name):
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(_stable_hash(name),))
        return np.random.Generator(np.random.PCG64(seq))

    def spawn(self, salt):
        """Derive a new independent :class:`RandomStreams` root."""
        return RandomStreams(seed=(self.seed * 1_000_003 + _stable_hash(str(salt))) % (2**63))

    def __repr__(self):
        names = sorted([*self._streams, *self._exponentials])
        return f"<RandomStreams seed={self.seed} streams={names}>"


def derive_seed(root_seed, *path):
    """Derive a child seed from ``root_seed`` and a component path.

    ``derive_seed(0, "node", "rack-03")`` is a pure function of its
    arguments — stable across processes, interpreter restarts and worker
    pools — so parallel runners can hand every shard a seed derived from
    one root and reproduce byte-identical results at any ``--jobs`` level.
    Components are stringified, so ints and strings mix freely.  Uses the
    same mixing arithmetic as :meth:`RandomStreams.spawn`.
    """
    value = int(root_seed) % (2**63)
    for part in path:
        value = (value * 1_000_003 + _stable_hash(str(part))) % (2**63)
    return value


def _stable_hash(name):
    """A process-independent 63-bit hash (``hash()`` is salted per process)."""
    value = 1469598103934665603  # FNV-1a offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (2**63)
    return value
