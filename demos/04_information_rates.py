"""
Information rates: what the channel supports vs what the decoder achieves
=========================================================================

Two quantities bracket a system's throughput in bits per channel use:

* the mutual information of a constellation, estimated by Monte Carlo
  under the channel's exact densities, and
* the achievable information rate (AIR) of a trained decoder, which is the
  mismatched-decoding lower bound log2 M + E[log2 f_y(true message)].

The AIR can never exceed the mutual information; a well-trained decoder
closes most of the gap.  For fixed 16-QAM the mutual information collapses
at high power (nonlinear phase noise), which is exactly what learned
constellations avoid.

Expects demo_checkpoint.json from demos/02_train_autoencoder.py (skips the
AIR part if missing).  Run:  python3 demos/04_information_rates.py
"""

import os

import numpy as np

from fiberae.autoencoder import constellation_points, load_checkpoint
from fiberae.channel import ChannelParams, dbm_from_watts, watts_from_dbm
from fiberae.evaluation import air, qam
from fiberae.likelihood import Constellation, build_oracle, mutual_information

params = ChannelParams()

print("16-QAM mutual information vs input power (Monte Carlo, exact densities):")
for p_dbm in (-10.0, -5.0, -2.0, 0.0, 5.0):
    const = qam(16, watts_from_dbm(p_dbm))
    oracle = build_oracle(const, params)
    mi = mutual_information(oracle, 50_000, seed=12)
    print(f"  {p_dbm:+6.1f} dBm: {mi:.3f} bpcu  (max log2 16 = 4)")

if not os.path.exists("demo_checkpoint.json"):
    print("\nno demo_checkpoint.json; run demos/02_train_autoencoder.py first"
          " to see the decoder AIR")
else:
    model = load_checkpoint("demo_checkpoint.json")
    p_dbm = dbm_from_watts(model.input_power_w)
    value = air(model, 50_000, seed=13)
    const = Constellation(points=constellation_points(model))
    # the channel the model was trained on, which need not be the default
    oracle = build_oracle(const, model.params)
    # at one seed both rates score the same channel outputs
    mi = mutual_information(oracle, 50_000, seed=13)
    print(f"\ntrained model at {p_dbm:+.1f} dBm:")
    print(f"  decoder AIR          = {value:.3f} bpcu")
    print(f"  constellation MI     = {mi:.3f} bpcu (upper-bounds the AIR)")
    print(f"  gap                  = {mi - value:+.3f} bits")
