"""Reference implementations the tier-1 parity tests compare against.

Each is the plain loop a set-up kernel in ``src/`` replaced: same inputs,
same draws on the same RNG stream, so results must be equal, not close.
"""
