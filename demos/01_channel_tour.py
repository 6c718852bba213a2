"""
A tour of the nonlinear fiber channel
=====================================

The channel acts on one complex sample at a time: K segments, each rotating
the sample by an intensity-dependent phase and adding Gaussian noise.  This
script shows the three behaviors everything else builds on:

* without noise, propagation preserves magnitude and applies the
  deterministic phase L * gamma * |x|^2,
* with the nonlinearity switched off, the channel is plain AWGN,
* at realistic powers, noise and nonlinearity interact: clouds twist into
  the crescents that make high-power detection hard.

Run:  python3 demos/01_channel_tour.py
"""

import numpy as np

from fiberae.channel import ChannelParams, make_rng, propagate, watts_from_dbm

params = ChannelParams()  # 5000 km, gamma 1.27 rad/(W km), -21.3 dBm noise, K=50
print(f"noise power: {params.noise_power_w:.3e} W (-21.3 dBm)")

# --- deterministic phase rotation --------------------------------------
x = np.sqrt(1e-3)  # 0 dBm symbol on the real axis
noiseless = ChannelParams(noise_power_w=0.0)
(y,) = propagate(np.array([x + 0j]), noiseless, make_rng(0))  # a batch of one
print(f"\nnoiseless propagation of |x|^2 = 1 mW:")
print(f"  |y| / |x|        = {abs(y) / abs(x):.15f}")
print(f"  arg(y) [rad]     = {np.angle(y) % (2 * np.pi):.6f}")
print(f"  L*gamma*|x|^2    = {params.link_length_km * params.gamma * 1e-3:.6f} (mod 2pi)")

# --- linear regime: pure AWGN ------------------------------------------
awgn = ChannelParams(gamma=0.0)
cloud = propagate(np.full(200_000, x + 0j), awgn, make_rng(1))
print(f"\ngamma = 0 over 2e5 samples:")
print(f"  empirical noise variance = {np.mean(np.abs(cloud - x) ** 2):.4e} W")
print(f"  configured noise power   = {awgn.noise_power_w:.4e} W")

# --- nonlinear phase noise at increasing power --------------------------
print("\ncloud shape vs input power (phase spread of the received cloud):")
rows = ["power_dbm,re,im"]
for p_dbm in (-10.0, 0.0, 5.0, 10.0):
    amp = np.sqrt(watts_from_dbm(p_dbm))
    cloud = propagate(np.full(4000, amp + 0j), params, make_rng(2))
    spread = np.std(np.angle(cloud * np.exp(-1j * np.median(np.angle(cloud)))))
    print(f"  {p_dbm:+6.1f} dBm: phase std {spread:.3f} rad")
    rows += [f"{p_dbm},{c.real},{c.imag}" for c in cloud[:500]]

with open("demo_channel_clouds.csv", "w") as fh:
    fh.write("\n".join(rows) + "\n")
print("\nwrote demo_channel_clouds.csv (500 samples per power, plot re vs im"
      " to see the crescents)")
