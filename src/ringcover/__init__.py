"""Coverage control with workload balancing on annular regions."""

__version__ = "0.1.0"
