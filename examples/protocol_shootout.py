#!/usr/bin/env python3
"""Protocol shoot-out: all four MACs on identical topology and traffic.

Runs S-FAMA, ROPA, CS-MAC and EW-MAC with the *same seed* — the same
deployment, the same mobility trajectories, the same packet arrival times
— so differences are attributable to the protocols alone (a paired
comparison, the method behind the paper's Figs. 6-11).

Run:
    python examples/protocol_shootout.py [--load 0.8] [--seeds 3]
"""

import argparse

from repro.experiments import run_scenario, table2_config
from repro.experiments.engine import PAPER_PROTOCOLS, mean


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--load", type=float, default=0.8, help="offered load (kbps)")
    parser.add_argument("--seeds", type=int, default=3, help="replications")
    parser.add_argument("--time", type=float, default=300.0, help="sim window (s)")
    args = parser.parse_args()

    rows = []
    for protocol in PAPER_PROTOCOLS:
        throughputs, powers, efficiencies, delays = [], [], [], []
        for seed in range(1, args.seeds + 1):
            result = run_scenario(
                table2_config(
                    protocol=protocol,
                    offered_load_kbps=args.load,
                    sim_time_s=args.time,
                    seed=seed,
                )
            )
            throughputs.append(result.throughput_kbps)
            powers.append(result.power_mw)
            efficiencies.append(result.efficiency.value)
            delays.append(result.mean_delay_s)
        rows.append(
            (protocol, mean(throughputs), mean(powers), mean(efficiencies), mean(delays))
        )

    print(f"\nOffered load {args.load} kbps, {args.seeds} seed(s), "
          f"{args.time:.0f} s window (Table 2 defaults otherwise)\n")
    header = f"{'protocol':10s} {'tput kbps':>10s} {'power mW':>10s} {'eff kbps/mW':>12s} {'delay s':>8s}"
    print(header)
    print("-" * len(header))
    baseline_eff = rows[0][3]
    for protocol, tput, power, eff, delay in rows:
        rel = f"({eff / baseline_eff:4.2f}x)" if baseline_eff else ""
        print(f"{protocol:10s} {tput:10.3f} {power:10.0f} {eff:12.6f} {delay:8.1f}  {rel}")
    print("\n(x) = efficiency index relative to S-FAMA, the paper's Fig. 11 view")


if __name__ == "__main__":
    main()
