"""Offset-clock sampling, resampling and correlation simulator."""

from .rational import parse_rational

__all__ = ["parse_rational"]

__version__ = "0.1.0"
