"""Heegaard Floer tau invariants from combinatorial data.

Computes tau invariants of knots from grid diagrams (for the 3-sphere)
and from user-supplied filtered complexes (for other 3-manifolds), and
evaluates the rational slice/PL-slice genus bounds, Seifert-framed
surface bounds, cable and braided-satellite tau estimates, the
slice-Bennequin check and deep-slice deductions built on them.
"""

__version__ = "0.1.0"
