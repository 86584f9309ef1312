"""Run configuration shared by server, clients and algorithms."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.federated.privacy import DifferentialPrivacy


@dataclass
class FederatedConfig:
    """Hyper-parameters of a federated run (paper Section 5 defaults).

    Attributes
    ----------
    num_rounds:
        Communication rounds ``T`` (50 for Table 3, 100 for Figure 7,
        500 for Figure 12).
    local_epochs:
        ``E``, the number of local passes per round (paper default 10).
    batch_size:
        Local mini-batch size (paper default 64).
    lr:
        Local SGD learning rate (0.01; 0.1 for rcv1).
    momentum:
        Local SGD momentum (paper uses 0.9).
    weight_decay:
        Local L2 penalty (paper uses none).
    sample_fraction:
        Fraction of parties sampled each round (1.0 = full participation,
        the paper's default; 0.1 with 100 parties for Figure 12).
    server_lr:
        Server-side step on the aggregated update (the ``eta`` of
        Algorithm 1 line 9; 1.0 recovers plain weighted model averaging,
        which is what the reference implementation does).
    bn_policy:
        ``"average"`` — batch-norm layers are averaged and broadcast like
        every other weight (the paper's naive default that Finding 7
        criticizes); ``"local"`` — every party keeps its own batch-norm
        entries (learned gamma/beta and running statistics) across rounds,
        the FedBN-style remedy the paper's Section 6.2 sketches.  The
        server still averages BN entries into its own copy so the global
        model remains evaluable.
    eval_every:
        Evaluate the global model on the test set every k rounds.
    eval_batch_size:
        Batch size for evaluation passes.
    seed:
        Seeds party sampling and local shuffling.
    dp:
        Optional :class:`~repro.federated.privacy.DifferentialPrivacy`
        settings; when set, local training clips each batch gradient and
        adds Gaussian noise (paper Section 6.1's future direction).
    sampler:
        Party-sampling policy under partial participation: ``"uniform"``
        (the paper's default, Algorithm 1 line 6) or ``"stratified"``
        (the Section 6.1 "non-IID resistant sampling" proposal — parties
        chosen so the sampled pool's label mix tracks the global one).
    optimizer:
        Local optimizer: ``"sgd"`` (the paper's choice), ``"adam"`` or
        ``"amsgrad"`` (options the NIID-Bench reference code exposes).
        SCAFFOLD requires ``"sgd"`` — its drift correction is defined on
        the SGD update rule.
    executor:
        Client-execution backend, a name registered in
        :data:`repro.federated.executor.EXECUTORS`: ``"serial"`` (one
        party after another, the default) or ``"stacked"`` (batch up to
        ``stack_size`` clients' local rounds into one fat compiled
        replay; see :class:`~repro.federated.executor.StackedExecutor`).
        Results are bitwise identical across backends; see
        :mod:`repro.federated.executor`.
    stack_size:
        Clients per stack for ``executor="stacked"`` (K; >= 2).  Larger
        stacks amortize NumPy dispatch over more clients per op; returns
        diminish once the fat operands saturate cache/BLAS throughput.
    stacked_tolerance:
        Max-abs per-element drift the stacked executor's serial-vs-
        stacked check accepts.  ``0.0`` (default) demands bitwise
        identity — correct on hosts whose batched GEMM runs each slice
        through the 2-D kernel; hosts that reassociate the reduction
        need a small positive tolerance (the drift check tells you).
    codec:
        Update-compression codec applied to both transport directions
        (see :mod:`repro.comm`): ``"identity"`` (the paper's float32
        wire — the default, bitwise-identical to uncompressed training),
        ``"float16"``, ``"qsgd"`` (stochastic uniform quantization at
        ``codec_bits``), ``"topk"`` or ``"randk"`` (sparsification
        keeping a ``codec_k`` fraction of entries, with per-party
        error-feedback residuals).  Byte accounting is measured from the
        encoded payloads either way.
    codec_bits:
        Bit width for the ``qsgd`` codec (1-16; ignored otherwise).
    codec_k:
        Kept fraction in (0, 1] for the ``topk``/``randk`` codecs
        (ignored otherwise).
    dropout_prob:
        Per-round probability a sampled party drops out (never responds);
        see :class:`~repro.federated.faults.FaultModel`.
    straggler_prob / straggler_factor:
        Probability a responding party runs slowed this round, and the
        compute-time multiplier applied when it does (>= 1).
    crash_prob / crash_after_steps:
        Probability a responding party crashes mid-training, and how many
        local steps it completes before dying.
    deadline:
        Round deadline in relative time units (a fault-free party
        finishes at 1.0; a straggler at ``straggler_factor``).  Parties
        whose slowdown exceeds the deadline time out and are dropped
        from aggregation.  ``None`` waits for every responder.
    over_sample:
        Under an active fault model with partial participation, sample
        extra parties so the *expected completed* count matches
        ``sample_fraction`` (on by default; disable to study raw
        participation decay).
    max_retries:
        Bounded retries the executor attempts for a party whose task
        raises an unexpected (non-injected) exception, before the round
        gives up loudly with nothing committed.
    checkpoint_every:
        Save a full run checkpoint every k rounds (0 = never); see
        :meth:`~repro.federated.server.FederatedServer.save_checkpoint`.
    checkpoint_path:
        Where periodic checkpoints are written (required when
        ``checkpoint_every > 0``).
    compile:
        Capture each (model, batch shape) training step once and replay
        it through preallocated buffers on later steps (see
        :mod:`repro.grad.capture`).  Replays are bitwise identical to
        eager execution, so this is purely a speed knob; models using
        unsupported ops (e.g. dropout) transparently stay eager.
    aggregation:
        ``"sync"`` — the classic barrier round (Algorithm 1, the paper's
        protocol); ``"async"`` — FedBuff-style buffered aggregation on
        the virtual-clock event engine
        (:class:`~repro.federated.async_engine.AsyncFederation`): the
        server applies an update as soon as ``buffer_size`` client
        uploads have arrived, and stragglers' deltas land in later
        server steps with recorded staleness.
    sample_per_round:
        Absolute cohort size for the async engine (clients concurrently
        in flight).  ``None`` derives it from ``sample_fraction`` times
        the population.  Ignored by the synchronous server, which sizes
        rounds by ``sample_fraction``.
    buffer_size:
        FedBuff buffer ``M``: client updates per server step under
        ``aggregation="async"``.  ``None`` (default) means the full
        cohort — a synchronization barrier, which reproduces the sync
        server bitwise.  ``M < cohort`` is genuinely asynchronous.
    staleness_exponent:
        Staleness discount ``a`` for async flushes that mix model
        versions: an update trained ``s`` server steps ago is weighted
        by ``(1 + s) ** -a`` on top of its sample count.  ``0.0``
        (default) weights purely by sample count; FedBuff's paper uses
        ``a = 0.5``.
    """

    num_rounds: int = 50
    local_epochs: int = 10
    batch_size: int = 64
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    sample_fraction: float = 1.0
    server_lr: float = 1.0
    bn_policy: str = "average"
    eval_every: int = 1
    eval_batch_size: int = 256
    seed: int = 0
    dp: "DifferentialPrivacy | None" = None
    sampler: str = "uniform"
    optimizer: str = "sgd"
    executor: str = "serial"
    stack_size: int = 16
    stacked_tolerance: float = 0.0
    codec: str = "identity"
    codec_bits: int = 8
    codec_k: float = 0.1
    dropout_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0
    crash_prob: float = 0.0
    crash_after_steps: int = 1
    deadline: float | None = None
    over_sample: bool = True
    max_retries: int = 1
    checkpoint_every: int = 0
    checkpoint_path: str | None = None
    compile: bool = False
    aggregation: str = "sync"
    sample_per_round: int | None = None
    buffer_size: int | None = None
    staleness_exponent: float = 0.0

    @classmethod
    def from_spec(cls, spec) -> "FederatedConfig":
        """The config a :class:`~repro.spec.RunSpec` runs under.

        Every config field whose name is a flat override name
        (:data:`repro.spec.OVERRIDE_PATHS`) is read from the spec section
        that declares it; the rest keep their defaults.  The one
        derivation is the seed: sampling and local shuffling draw from
        ``spec.seed + 41`` so they stay independent of the dataset,
        partition and model streams.
        """
        from repro.spec import OVERRIDE_PATHS

        values = {}
        for f in fields(cls):
            section, attr = OVERRIDE_PATHS.get(f.name, (None, None))
            if section is not None:
                values[f.name] = getattr(getattr(spec, section), attr)
        return cls(seed=spec.seed + 41, **values)

    def __post_init__(self):
        if self.num_rounds <= 0:
            raise ValueError(f"num_rounds must be positive, got {self.num_rounds}")
        if self.local_epochs <= 0:
            raise ValueError(f"local_epochs must be positive, got {self.local_epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in (0, 1], got {self.sample_fraction}"
            )
        if self.server_lr <= 0:
            raise ValueError(f"server_lr must be positive, got {self.server_lr}")
        if self.bn_policy not in ("average", "local"):
            raise ValueError(
                f"bn_policy must be 'average' or 'local', got {self.bn_policy!r}"
            )
        if self.eval_every <= 0:
            raise ValueError(f"eval_every must be positive, got {self.eval_every}")
        if self.sampler not in ("uniform", "stratified"):
            raise ValueError(
                f"sampler must be 'uniform' or 'stratified', got {self.sampler!r}"
            )
        if self.optimizer not in ("sgd", "adam", "amsgrad"):
            raise ValueError(
                f"optimizer must be 'sgd', 'adam' or 'amsgrad', "
                f"got {self.optimizer!r}"
            )
        from repro.federated.executor import EXECUTORS

        if self.executor not in EXECUTORS:
            raise ValueError(EXECUTORS.unknown(self.executor))
        if self.stack_size < 2:
            raise ValueError(
                f"stack_size must be >= 2, got {self.stack_size}"
            )
        if self.stacked_tolerance < 0:
            raise ValueError(
                f"stacked_tolerance must be non-negative, "
                f"got {self.stacked_tolerance}"
            )
        from repro.comm import CODECS

        if self.codec not in CODECS:
            raise ValueError(CODECS.unknown(self.codec))
        if not 1 <= self.codec_bits <= 16:
            raise ValueError(
                f"codec_bits must be in [1, 16], got {self.codec_bits}"
            )
        if not 0.0 < self.codec_k <= 1.0:
            raise ValueError(
                f"codec_k must be a fraction in (0, 1], got {self.codec_k}"
            )
        for name in ("dropout_prob", "straggler_prob", "crash_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.dropout_prob + self.crash_prob > 1.0:
            raise ValueError(
                "dropout_prob + crash_prob must not exceed 1, got "
                f"{self.dropout_prob} + {self.crash_prob}"
            )
        if self.straggler_factor < 1.0:
            raise ValueError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        if self.crash_after_steps < 1:
            raise ValueError(
                f"crash_after_steps must be >= 1, got {self.crash_after_steps}"
            )
        if self.deadline is not None and self.deadline < 1.0:
            raise ValueError(
                "deadline is relative to a fault-free party's round time "
                f"(1.0) and must be >= 1, got {self.deadline}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be non-negative, got {self.checkpoint_every}"
            )
        if self.checkpoint_every > 0 and not self.checkpoint_path:
            raise ValueError(
                "checkpoint_every > 0 needs a checkpoint_path to write to"
            )
        if self.aggregation not in ("sync", "async"):
            raise ValueError(
                f"aggregation must be 'sync' or 'async', got {self.aggregation!r}"
            )
        if self.sample_per_round is not None and self.sample_per_round < 1:
            raise ValueError(
                f"sample_per_round must be >= 1, got {self.sample_per_round}"
            )
        if self.buffer_size is not None and self.buffer_size < 1:
            raise ValueError(
                f"buffer_size must be >= 1, got {self.buffer_size}"
            )
        if (
            self.buffer_size is not None
            and self.sample_per_round is not None
            and self.buffer_size > self.sample_per_round
        ):
            raise ValueError(
                f"buffer_size ({self.buffer_size}) cannot exceed the cohort "
                f"(sample_per_round={self.sample_per_round}): the buffer can "
                "never fill with fewer clients in flight than it holds"
            )
        if self.staleness_exponent < 0:
            raise ValueError(
                f"staleness_exponent must be non-negative, "
                f"got {self.staleness_exponent}"
            )
