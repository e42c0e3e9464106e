"""Finite-window coarse topology probes.

Rips complexes over GF(2) on explicit group ball models and grid fixtures,
with coarse separation, relative ends, a finite-scale Mayer-Vietoris
assembly, essential-component probes and mobility sets. Every
verdict is relative to the window it was computed on; asymptotic claims are
reported as three-valued trends, never certified.
"""
