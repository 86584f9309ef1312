"""Scenario: a federation that also wants differential privacy.

The paper's Section 6.1: FL hides raw data but models can still leak;
"techniques such as differential privacy are useful to protect the local
databases", at some accuracy cost.  This example trains the same
label-skewed federation at several DP noise levels and prints the
privacy-utility frontier with the coarse epsilon estimate.

Run:  python examples/private_federation.py     (~1 minute on CPU)
"""

from repro.data import load_dataset
from repro.federated import (
    FedAvg,
    FederatedConfig,
    FederatedServer,
    approximate_epsilon,
    make_clients,
)
from repro.models import build_model
from repro.partition import parse_strategy

import numpy as np

ROUNDS = 6
LOCAL_EPOCHS = 3
NOISE_LEVELS = (0.0, 0.3, 1.0, 3.0)


def main() -> None:
    train, test, info = load_dataset("mnist", n_train=600, n_test=300, seed=8)
    partition = parse_strategy("dir(0.5)").partition(train, 10, np.random.default_rng(8))

    print(f"{'noise':>6s} | {'final acc':>9s} | {'~epsilon (coarse upper bound)':>30s}")
    print("-" * 52)
    for noise in NOISE_LEVELS:
        clients = make_clients(partition, train, seed=8, drop_empty=True)
        model = build_model("cnn", info, seed=8)
        config = FederatedConfig(
            num_rounds=ROUNDS, local_epochs=LOCAL_EPOCHS, batch_size=32,
            lr=0.01, seed=8, dp_noise_multiplier=noise,
        )
        server = FederatedServer(model, FedAvg(), clients, config, test_dataset=test)
        history = server.fit()
        steps = ROUNDS * LOCAL_EPOCHS * 2  # ~2 batches per epoch per party
        if noise == 0:
            epsilon_text = "inf (no privacy)"
        else:
            epsilon = approximate_epsilon(steps, sample_rate=0.5, noise_multiplier=noise)
            epsilon_text = f"{epsilon:,.0f}"
        print(f"{noise:6.1f} | {history.final_accuracy:9.3f} | {epsilon_text:>30s}")

    print(
        "\nThe trade-off the paper's Section 6.1 calls a 'challenging research"
        "\ndirection': each step down in epsilon costs accuracy."
    )


if __name__ == "__main__":
    main()
