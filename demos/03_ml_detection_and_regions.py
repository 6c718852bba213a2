"""
Exact-likelihood ML detection and decision regions
==================================================

The maximum-likelihood detector decides by the exact law of the simulated
channel: each symbol's output density is an angular Fourier series whose
modes follow a short recursion over the fiber segments, so no sample is
drawn to build it.

On this channel a naive minimum-distance rule ignores the deterministic
intensity-dependent rotation and falls apart as power grows; the ML
detector tracks the crescent-shaped clouds.

Run:  python3 demos/03_ml_detection_and_regions.py
"""

import numpy as np

from fiberae.channel import ChannelParams, watts_from_dbm
from fiberae.evaluation import RasterSpec, decision_regions, detector_for, qam, ser

params = ChannelParams()

print("16-QAM on the nonlinear channel: min-distance vs ML")
print(f"{'power':>8} {'SER mindist':>12} {'SER ML':>10}")
for p_dbm in (-10.0, -5.0, -2.0, 0.0):
    const = qam(16, watts_from_dbm(p_dbm))
    s_md = ser(const, detector_for("mindist", const, params), params, 50_000, seed=2)
    s_ml = ser(const, detector_for("ml", const, params), params, 50_000, seed=2)
    print(f"{p_dbm:+8.1f} {s_md:12.4f} {s_ml:10.4f}")

# rasterize the ML decision regions at 0 dBm
p_in = watts_from_dbm(0.0)
const = qam(16, p_in)
spec = RasterSpec(center=0j, half_width=3.0 * np.sqrt(p_in), resolution=120)
grid = decision_regions(detector_for("ml", const, params), spec)

with open("demo_ml_regions.txt", "w") as fh:
    fh.write(f"{spec.resolution}\n")
    for row in grid:
        fh.write(" ".join(str(v) for v in row) + "\n")
print("\nwrote demo_ml_regions.txt (120x120 labels; rows along ascending imag)")
print("the same raster comes from:  fiberae regions --source qam --detector ml"
      " --power 0 --ppm")
