"""Myo armband bridge: protocol decoding, motion features, sound mapping,
OSC output, offline synthesis, and deterministic session logs."""

__version__ = "0.1.0"
