"""Exact-arithmetic engine for the correspondence between period polynomial
relations in the double shuffle Lie algebra and linear relations among
odd-component double zeta values."""

__version__ = "0.1.0"
