"""Segment-based constrained video encoding optimizer.

Builds Pareto-optimal rate-quality-speed models per video segment, solves
constrained encoding modes (max quality, min bitrate, max encoding rate)
by regression-model inversion, compares codecs by BD-rate, and adapts
constraints to camera activity.
"""

from .encoders import default_law

__version__ = "0.1.0"
