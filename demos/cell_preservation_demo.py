"""Why the skip gate exists: surviving a state-erasing step.

A plain gated recurrent cell can lose information irrecoverably: one
adversarial input can slam the reset gate shut and open the update gate, so
the state computed two steps ago no longer influences anything downstream.
The skip connection gives a later step a second, gated route back to that
erased state.

This demo builds a 1-unit cell, drives it with a sequence whose second input
erases step 1 from the recurrent path, and measures |dh_4 / dx_1| by central
differences — once with a skip edge from step 1 to step 4, once without.
"""

import numpy as np

from bmrnn.cells import SGRUParams, sgru_forward, sgru_inputs, sgru_layout


def h4_sensitivity(seed: int, with_skip: bool) -> float:
    rng = np.random.default_rng(seed)
    p = SGRUParams.from_named({n: np.zeros(shape) for n, shape in sgru_layout(1, 1)})
    p.W_zx[:] = rng.uniform(0.5, 1.5)    # large x opens the update gate
    p.W_rx[:] = -rng.uniform(0.5, 1.5)   # ... and closes the reset gate
    p.W_hx[:] = rng.uniform(-1, 1)
    p.W_zh[:] = rng.uniform(-0.5, 0.5)
    p.W_rh[:] = rng.uniform(-0.5, 0.5)
    p.W_hh[:] = rng.uniform(-1, 1)
    p.W_sx[:] = rng.uniform(-1, 1)
    p.W_sh[:] = rng.uniform(-1, 1)
    p.W_hp[:] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)

    xs = rng.uniform(-1, 1, size=4)
    xs[1] = 8.0  # the adversarial step: r_2 -> 0, z_2 -> 1

    def h4(x1: float) -> float:
        seq = xs.copy()
        seq[0] = x1
        xp = sgru_inputs(p, seq[:, None])
        h = np.zeros(1)
        states = []
        for t in range(4):
            skip = with_skip and t == 3
            h = sgru_forward(p, xp[t], h, states[0] if skip else np.zeros(1), np.array(skip)).h
            states.append(h)
        return float(h[0])

    eps = 1e-5
    return abs(h4(xs[0] + eps) - h4(xs[0] - eps)) / (2 * eps)


def main() -> None:
    print(__doc__)
    print(f"{'seed':>4}  {'|dh4/dx1| with skip':>20}  {'without skip':>14}")
    wins = 0
    for seed in range(10):
        with_skip = h4_sensitivity(seed, with_skip=True)
        without = h4_sensitivity(seed, with_skip=False)
        wins += with_skip > without
        print(f"{seed:>4}  {with_skip:>20.3e}  {without:>14.3e}")
    print(f"\nskip edge preserved more sensitivity in {wins}/10 seeds")
    print("(the no-skip column is orders of magnitude smaller: the adversarial")
    print(" step all but erases x_1 from the recurrent path; the skip edge")
    print(" carries it around that step)")


if __name__ == "__main__":
    main()
