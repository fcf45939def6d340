"""Standalone references: a sketch or low-frequency block alone on a bank of
its own, on a clock of its own, which the test ticks as the clock's builder."""

from dpsketch.countsketch import CountSketchState
from dpsketch.low_freq import LowFreqSmall
from dpsketch.summing import BinaryTreeMechanism, Clock


def bank_on_clock(T, ctx):
    """An empty bank on a new clock; the caller ticks ``bank.clock``."""
    return BinaryTreeMechanism.bank(T, ctx, Clock(T))


class Standalone:
    """``block`` with the bank ``bank_on_clock`` gave it: ``feed`` and ``ingest``
    tick the bank's clock, then hand the event to the block; every other
    attribute is the block's."""

    def __init__(self, block, bank):
        self.block = block
        self._clock = bank.clock

    def feed(self, e):
        self._clock.tick()
        self.block.ingest(e)

    ingest = feed

    def __getattr__(self, name):
        return getattr(self.block, name)


def standalone_sketch(k, T, epsilon, ctx, key=()):
    """The sketch keyed ``key`` under ``ctx``, alone on its bank."""
    bank = bank_on_clock(T, ctx)
    block = CountSketchState(k, epsilon, bank, CountSketchState.key_folds(ctx, key))
    return Standalone(block, bank)


def standalone_lowfreq(m, k, T, epsilon, ctx):
    """The counter block of universe ``m`` under ``ctx``, alone on its bank."""
    bank = bank_on_clock(T, ctx)
    return Standalone(LowFreqSmall(m, k, epsilon, ctx, bank), bank)
