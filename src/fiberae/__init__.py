"""Autoencoder-shaped communication over a memoryless nonlinear fiber channel.

The package provides, as plain numpy code:

* ``channel``      -- the per-sample nonlinear phase-noise channel and its
                      exact gradient, carried forward through the recursion,
* ``nets``         -- a minimal dense-network engine (forward, backprop,
                      cross-entropy, Adam),
* ``autoencoder``  -- the trainable transmitter/channel/receiver stack with
                      power normalization and checkpointing,
* ``likelihood``   -- the channel's exact per-symbol log-densities
                      (``log_densities``), maximum-likelihood detection,
                      and mutual information estimation,
* ``evaluation``   -- QAM baselines, symbol-error-rate and information-rate
                      measurement, decision-region rasters, power sweeps,
* ``gradcheck``    -- finite-difference verification of every gradient path,
                      with its one step and one tolerance,
* ``cli``          -- the ``fiberae`` command-line front end.
"""

__version__ = "0.1.0"
