"""Heat semigroup backends.

Spectral backends give deterministic values (Fourier on circles,
Legendre for zonal fields on 2-spheres, Gauss-Hermite on flat space and
under linear drift, where the transition kernel is Gaussian), together
with the exact gradient norm and generator of P_t f; heat_apply and
heat_jet pick the space's backend themselves.  The exact heat-law
sampler and the first walker of the coupled geodesic walk draw the same
heat law and must agree within their noise.
"""

import math

import numpy as np

from ctlab import (
    EuclideanOU,
    Sphere,
    WalkConfig,
    heat_apply,
    heat_jet,
    run_coupled,
    sample_heat,
)

sphere = Sphere(2)
cos_theta = lambda p: p[..., 2]
theta = math.pi / 3
x = np.array([0.0, math.sin(theta), math.cos(theta)])

print("zonal mode on the unit sphere (eigenvalue -2):")
for t in (0.1, 0.5, 1.0):
    value = heat_apply(sphere, cos_theta, t, x)
    print(f"  t={t:3.1f}: P_t cos = {value:+.8f}"
          f"   oracle {math.exp(-2 * t) * math.cos(theta):+.8f}")

_, grad, gen = heat_jet(sphere, cos_theta, 0.5, x)
print(f"gradient  |grad P_t f| = {grad:.8f}"
      f"   oracle {math.exp(-1.0) * math.sin(theta):.8f}")
print(f"generator  L P_t f     = {gen:+.8f}"
      f"   oracle {-2 * math.exp(-1.0) * math.cos(theta):+.8f}")

cfg = WalkConfig(k=15, n_trajectories=3000, seed=5)
for name, cloud in (("exact law", sample_heat(sphere, (x,), (0.5,), cfg)[0]),
                    ("walk", run_coupled(sphere, x, x, 0.5, 0.5, cfg).terminal.x1)):
    vals = cos_theta(cloud)
    print(f"{name:9} mean of f  = {vals.mean():+.6f} +- "
          f"{vals.std(ddof=1) / math.sqrt(vals.size):.6f}")

print("\nlinear drift (rate 1): the transition kernel is Gaussian")
ou = EuclideanOU(1, 1.0)
f = lambda p: np.sin(p[..., 0])
t = 0.4
value = heat_apply(ou, f, t, np.array([0.7]))
oracle = math.sin(math.exp(-t) * 0.7) * math.exp(-(1 - math.exp(-2 * t)) / 2)
print(f"  P_t sin(0.7) = {value:.10f}   closed form {oracle:.10f}")
