"""Accuracy-vs-communication sweeps: the Section 5.2 trade-off study.

The paper reports how much accuracy each algorithm buys per byte on the
wire; with :mod:`repro.comm` codecs the same question extends to lossy
compression.  :func:`communication_sweep` fixes a (dataset, partition,
algorithm) cell, runs it once per codec configuration, and collects the
measured byte streams next to the accuracy curves so the trade-off is
directly plottable with
:func:`~repro.experiments.plotting.accuracy_vs_bytes_chart`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.comm import CODEC_NAMES
from repro.federated.history import History
from repro.spec import RunSpec
from repro.experiments.plotting import accuracy_vs_bytes_chart
from repro.experiments.scale import BENCH, ScalePreset
from repro.experiments.scheduler import run_matrix

#: the default ladder: uncompressed wire, dense half-precision, 4-bit
#: quantization, and 10% sparsification with error feedback.
DEFAULT_CODECS = (
    "identity",
    "float16",
    {"codec": "qsgd", "codec_bits": 4},
    {"codec": "topk", "codec_k": 0.1},
)


def _normalize_spec(spec) -> dict:
    """Accept a codec name or a kwargs dict; return runner keyword args."""
    if isinstance(spec, str):
        spec = {"codec": spec}
    spec = dict(spec)
    name = spec.get("codec")
    if name not in CODEC_NAMES:
        raise ValueError(f"unknown codec in sweep spec: {name!r}")
    unknown = set(spec) - {"codec", "codec_bits", "codec_k"}
    if unknown:
        raise ValueError(f"unexpected codec spec keys: {sorted(unknown)}")
    return spec


def _label(spec: dict) -> str:
    """Short legend label: ``qsgd(4b)``, ``topk(k=0.1)``, ``identity``."""
    name = spec["codec"]
    if name == "qsgd":
        return f"qsgd({spec.get('codec_bits', 8)}b)"
    if name in ("topk", "randk"):
        return f"{name}(k={spec.get('codec_k', 0.1):g})"
    return name


@dataclass
class CommSweepResult:
    """Histories of one experiment cell run under each codec."""

    dataset: str
    partition: str
    algorithm: str
    histories: dict = field(default_factory=dict)  # label -> History

    def final_accuracies(self) -> dict:
        return {
            label: history.final_accuracy
            for label, history in self.histories.items()
        }

    def total_megabytes(self) -> dict:
        """Measured end-of-run communication per codec, in MB."""
        return {
            label: float(history.cumulative_communication()[-1]) / 1e6
            for label, history in self.histories.items()
        }

    def compression_ratios(self) -> dict:
        """Bytes relative to the ``identity`` run (1.0 = uncompressed)."""
        totals = self.total_megabytes()
        if "identity" not in totals:
            raise ValueError("no identity baseline in this sweep")
        baseline = totals["identity"]
        return {label: total / baseline for label, total in totals.items()}

    def chart(self, height: int = 12, width: int = 60) -> str:
        """Render the accuracy-vs-cumulative-bytes curves."""
        return accuracy_vs_bytes_chart(self.histories, height=height, width=width)

    def to_text(self) -> str:
        lines = [
            f"communication sweep: {self.dataset} / {self.partition} / "
            f"{self.algorithm}"
        ]
        megabytes = self.total_megabytes()
        for label, accuracy in self.final_accuracies().items():
            lines.append(
                f"  {label:16s} acc {accuracy:.4f}  comm {megabytes[label]:8.3f} MB"
            )
        return "\n".join(lines)


def communication_sweep(
    dataset: str,
    partition: str,
    algorithm: str = "fedavg",
    codecs: Iterable = DEFAULT_CODECS,
    preset: ScalePreset = BENCH,
    seed: int = 0,
    store=None,
    **fixed,
) -> CommSweepResult:
    """Run one cell per codec configuration and collect measured bytes.

    Parameters
    ----------
    codecs:
        Codec configurations: names from :data:`repro.comm.CODEC_NAMES`
        or dicts like ``{"codec": "qsgd", "codec_bits": 4}``.
    store:
        Optional :class:`~repro.experiments.store.ResultStore`; already
        stored codec points are reloaded instead of re-run, fresh ones
        are saved.
    fixed:
        Additional fixed arguments forwarded to
        :meth:`~repro.spec.RunSpec.build`.

    All runs share the seed, so curve differences come from the codec
    alone (identity reproduces the uncompressed run bitwise).
    """
    result = CommSweepResult(
        dataset=dataset, partition=str(partition), algorithm=algorithm
    )
    base = RunSpec.build(
        dataset, partition, algorithm, preset=preset, seed=seed, **fixed
    )
    points = {}
    for codec_spec in codecs:
        codec_spec = _normalize_spec(codec_spec)
        points[_label(codec_spec)] = base.with_overrides(**codec_spec)
    records = run_matrix(points.values(), store=store)
    for label, record in zip(points, records):
        result.histories[label] = History.from_dict(record["history"])
    return result
