"""Market entry games under adaptive learning: simulation and analysis.

Three levels of description of the same dynamics, built to be checked
against each other:

- exact enumeration of single rounds for small populations (`oracle`)
- an agent-based Monte Carlo engine for large populations (`abm`)
- a mean-field drift-diffusion solver for the propensity density (`kinetic`)

plus decay-rate measurement utilities (`analysis`) and a batch CLI (`cli`).
"""
