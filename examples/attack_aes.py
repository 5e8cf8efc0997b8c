"""Attack the AES implementation: Figure 3 and Figure 4 end to end.

Part 1 reproduces Figure 3: a bare-metal CPA with the coarse
HW(SubBytes-output) model, plotted over the first round with the
primitive boundaries annotated.

Part 2 recovers the *entire* 16-byte key with a low-noise campaign
(what the paper's 100k-trace hardware budget achieves).

Part 3 reproduces Figure 4: the same AES as a userspace process on a
fully loaded Linux box, attacked with the microarchitecture-aware
HD(consecutive SubBytes stores) model from 100 averaged traces.

Everything runs through the public ``repro.api`` façade: scenarios by
name for the paper figures, ``Session.acquire`` for the custom
key-recovery campaign.

Run:  python examples/attack_aes.py
"""

from repro.api import Session
from repro.crypto.aes_asm import LAYOUT, round1_only_program
from repro.power.acquisition import random_inputs
from repro.power.scope import ScopeConfig
from repro.sca.cpa import cpa_attack
from repro.sca.models import hw_sbox_matrix

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


def full_key_recovery() -> None:
    print("\n== full key recovery (low-noise campaign, 800 traces) ==")
    program = round1_only_program(KEY)
    inputs = random_inputs(800, mem_blocks={LAYOUT.state: 16}, seed=11)
    session = Session(scope=ScopeConfig(noise_sigma=6.0, n_averages=16), seed=12)
    trace_set = session.acquire(program, inputs, entry="aes_round1")
    plaintexts = inputs.mem_bytes[LAYOUT.state]
    recovered = bytearray(16)
    for byte_index in range(16):
        result = cpa_attack(trace_set.traces, hw_sbox_matrix(plaintexts, byte_index))
        recovered[byte_index] = result.best_guess
        mark = "ok" if result.best_guess == KEY[byte_index] else "XX"
        print(
            f"  byte {byte_index:2d}: guess {result.best_guess:#04x} "
            f"(true {KEY[byte_index]:#04x}) [{mark}]  peak r = {result.best_corr:.3f}"
        )
    print(f"  recovered: {bytes(recovered).hex()}")
    print(f"  true key : {KEY.hex()}")
    print(f"  -> {'FULL KEY RECOVERED' if bytes(recovered) == KEY else 'partial recovery'}")


def main() -> None:
    session = Session()

    print("== Figure 3: bare-metal CPA, HW(SubBytes out) model ==\n")
    figure3 = session.run("figure3", n_traces=3000)
    print(figure3.render())

    full_key_recovery()

    print("\n== Figure 4: loaded Linux, HD(consecutive stores) model ==\n")
    figure4 = session.run("figure4", n_traces=100)
    print(figure4.render())

    print(
        "\nenvelope verdicts: "
        f"figure3 matches_paper={figure3.matches_paper}, "
        f"figure4 matches_paper={figure4.matches_paper}"
    )


if __name__ == "__main__":
    main()
