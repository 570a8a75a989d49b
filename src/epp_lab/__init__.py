"""Numerical laboratory for conclusive purification of two-qubit pure states.

Builds the two-parameter Kraus family whose success branch turns two copies
of any pure input into a state diagonal in {|00>, |11>}, chains two such
rounds into an exact Bell-state pipeline, checks the closed-form success
probabilities and optimality bounds at matrix level, and computes Haar
averages of the success probability both analytically and by seeded,
reproducible Monte Carlo.
"""

__version__ = "0.1.0"
