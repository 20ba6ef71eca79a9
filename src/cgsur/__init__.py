"""Probabilistic coarse-grained surrogates for elliptic PDEs.

Library layout:

- field: lognormal conductivity fields and randomized boundary data
- fem: P1 finite elements, direct solves and their adjoints
- approximators: tanh multilayer perceptrons, described by their layer widths,
  with reverse-mode gradients
- genmodel: the latent-variable generative model with a coarse solver inside
- vobs: virtual observables (weighted residuals, flux balance, energy)
- inference: stochastic variational training, closed-form updates and the
  checkpoint format of training states
- predict: predictive posteriors, metrics, uncertainty propagation
- errors, gaussians, seeding: typed errors, Gaussian identities, derived seeds
"""

__version__ = "0.1.0"
