"""
Training a constellation end to end
===================================

A 16-message autoencoder learns its own constellation and decision rule by
backpropagating the receiver's cross-entropy through the channel recursion
and the power normalization into the transmitter.

This demo uses a reduced batch budget so it finishes in about half a
minute; the shipped defaults (10000 batches) reach lower error rates.  The
equivalent command line is

    fiberae train --power 2 --batches 3000 --out demo_out

Run:  python3 demos/02_train_autoencoder.py
"""

import numpy as np

from fiberae.autoencoder import build_model, constellation_points, save_checkpoint, train
from fiberae.channel import ChannelParams, watts_from_dbm
from fiberae.evaluation import detector_for, ser

POWER_DBM = 2.0
params = ChannelParams()

model = build_model(16, params, watts_from_dbm(POWER_DBM), seed=0)
settings = {"batch_size": 1024, "batches": 3000, "learning_rate": 1e-3, "seed": 42}

print(f"training M=16 at {POWER_DBM:+.1f} dBm for {settings['batches']} batches...")
losses = train(model, **settings)
marks = losses[:: settings["batches"] // 10]
print("loss trace:", " ".join(f"{v:.3f}" for v in marks), f"-> {losses[-1]:.4f}")
print(f"(the first value sits near ln 16 = {np.log(16):.3f}: the fresh decoder is uniform)")

# measure the symbol error rate of the learned system on 100k samples
rate = ser(model, detector_for("ae", model, params), params, 100_000, seed=7)
print(f"\nlearned system SER at {POWER_DBM:+.1f} dBm: {rate:.2e}")

pts = constellation_points(model)
print(f"constellation mean power: {np.mean(np.abs(pts) ** 2):.6e} W "
      f"(budget {model.input_power_w:.6e} W)")
print("amplitude levels (sorted):", np.round(np.sort(np.abs(pts)) * 1e3, 3), "sqrt(mW)")

save_checkpoint(model, "demo_checkpoint.json", {**settings, "power_dbm": POWER_DBM})
print("\nwrote demo_checkpoint.json (inspect it: plain JSON, reloadable bit-exactly)")
