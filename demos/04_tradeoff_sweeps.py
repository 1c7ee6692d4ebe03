#!/usr/bin/env python3
"""Two sweeps that exhibit the reliability-for-security trade.

First: the optimal LFP versus Bob's channel gain, against the classical
baseline that pins the leakage budget and then maximizes reliability alone.
Second: the optimal LFP versus packet size; bigger packets do better here
because the transmitter can spend more resources before the eavesdropper
catches up.
"""

from fblsec import ChannelSpec, Scenario, solve_fixed_leakage, solve_multi


def scenario(d=320, z_b=1.5, z_e=1.0):
    return Scenario(d=d, bob=ChannelSpec(z_b, 0.1),
                    eves=(ChannelSpec(z_e, 0.1),), m_cap=3000, p_cap=10.0)


print("== optimal LFP vs Bob's gain (eavesdropper gain 1.0) ==")
print(f"{'z_b':>5} {'joint eps_lf':>14} {'fixed-leak eps_lf':>18} {'ratio':>8}")
for z_b in (1.2, 1.4, 1.6, 1.8, 2.0):
    sc = scenario(z_b=z_b)
    joint = solve_multi(sc).eps_lf
    _, _, fixed = solve_fixed_leakage(sc, 1e-3, p_points=200, refine_rounds=2)
    print(f"{z_b:5.1f} {joint:14.4e} {fixed:18.4e} {fixed / joint:8.1f}")
print("pinning the leakage at 1e-3 forfeits the trade: its LFP is dominated")

print("\n== optimal LFP vs packet size (caps 3000 uses / 10 W) ==")
print(f"{'d':>5} {'eps_lf':>12} {'m*':>6} {'p* [W]':>9}")
for d in (160, 320, 480, 640):
    res = solve_multi(scenario(d=d))
    print(f"{d:5d} {res.eps_lf:12.4e} {res.m_star:6d} {res.p_star:9.5f}")
print("larger packets pull the optimum toward more blocklength and power,")
print("and the achieved LFP still falls")
