"""chemoflow: 2D chemotaxis-fluid simulator with regularized degenerate
diffusion and singular sensitivity, plus invariant monitors and standalone
functional-inequality verification."""

__version__ = "0.1.0"
