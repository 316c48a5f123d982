"""Offset-clock sampling, resampling and correlation simulator."""

__version__ = "0.1.0"
