"""Convex mixtures of dephasing qudit maps: construction, invertibility, measure.

Each object is imported from the module that defines it:

- ``finite_field``: prime-power dimensions and Galois field arithmetic.
- ``mub``: the d+1 mutually unbiased bases, built and verified.
- ``dynmaps``: the decoherence families and ``MixtureMap``, a map held as its d+1 eigenvalues.
- ``threshold``: the weight threshold g(d, n) and the regime of n.
- ``invertibility``: singular times and CP-divisibility.
- ``measure``: the invertible fraction of the simplex by closed form, quadrature and Monte Carlo.
- ``oracle``: the dense superoperator, Choi and Kraus forms the tests check against.
- ``errors``, ``serialization`` and ``cli``: refusals, canonical JSON and the ``paulimix`` command.

Importing the package loads none of them.
"""

__version__ = "0.1.0"
