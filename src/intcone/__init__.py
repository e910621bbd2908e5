"""Exact integer-point machinery for PSD and second-order cones.

The package decomposes integer points of two cone families into certified
sums over finitely many group orbits, searches for the exceptional
("sporadic") points that no extreme-ray subtraction reaches, generates
Chvatal-Gomory cutting planes from the same orbit data, and bounds integer
Caratheodory ranks.  All arithmetic is exact integer arithmetic; only the
Hermite constants are rationals.
"""

__version__ = "0.1.0"
