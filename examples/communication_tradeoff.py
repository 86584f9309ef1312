"""Scenario: how much accuracy does each byte on the wire buy?

The paper's Section 5.2 charges algorithms for their communication —
SCAFFOLD transmits twice the payload of FedAvg per round.  With the
:mod:`repro.comm` codecs the same accounting extends to compressed
updates: we run one MNIST label-skew cell under a codec ladder
(uncompressed float32, float16, 4-bit QSGD, top-10% with error
feedback) and plot accuracy against *measured* cumulative megabytes.

Run:  python examples/communication_tradeoff.py    (~1 minute on CPU)
"""

from repro.experiments.plotting import accuracy_vs_bytes_chart
from repro.experiments.scale import ScalePreset
from repro.experiments.sweeps import sweep

PRESET = ScalePreset(
    name="comm-tradeoff", n_train=700, n_test=300, num_rounds=10, local_epochs=2, batch_size=32
)
CODECS = {
    "identity": {"codec": "identity"},
    "float16": {"codec": "float16"},
    "qsgd(4b)": {"codec": "qsgd", "codec_bits": 4},
    "topk(k=0.1)": {"codec": "topk", "codec_k": 0.1},
}


def main() -> None:
    result = sweep(CODECS, "mnist", "#C=2", "fedavg", preset=PRESET, seed=7)
    finals = result.finals()
    megabytes = {
        label: history.cumulative_communication()[-1] / 1e6
        for label, history in result.histories.items()
    }
    ratios = {label: mb / megabytes["identity"] for label, mb in megabytes.items()}
    for label, ratio in ratios.items():
        print(
            f"  {label:12s} acc {finals[label]:.4f}  comm {megabytes[label]:8.3f} MB"
            f"  ({100 * ratio:5.1f}% of the uncompressed bytes)"
        )
    print()
    print(accuracy_vs_bytes_chart(result.histories, height=12, width=64))
    print()
    best_cheap = min(
        (label for label in ratios if ratios[label] < 0.5),
        key=lambda label: ratios[label],
    )
    print(
        f"{best_cheap} sends {100 * ratios[best_cheap]:.1f}% of the bytes and "
        f"still reaches {finals[best_cheap]:.3f} "
        f"(vs {finals['identity']:.3f} uncompressed)."
    )


if __name__ == "__main__":
    main()
