"""Update-compression codecs: vectors in, measured wire payloads out.

A :class:`Codec` turns a flat ``float32`` vector (a model state, a model
update, or an algorithm extra such as SCAFFOLD's control variate) into a
:class:`Payload` whose ``nbytes`` is the *measured* wire size of that
representation, and back.  The federated transport
(:mod:`repro.comm.channel`) plugs a codec into both directions of every
round, replacing the previous closed-form "assume float32" accounting
with numbers read off the encoded payloads themselves.

Four codec families ship:

- :class:`IdentityCodec` — the float32 wire the paper assumes; lossless,
  so transports can pass arrays through untouched and just meter them.
- :class:`Float16Codec` — halve the wire by casting to ``float16``.
- :class:`QSGDCodec` — QSGD-style stochastic uniform quantization at a
  configurable bit width (Alistarh et al., NeurIPS 2017): unbiased
  rounding between quantization levels, so compressed averages stay
  centred on the uncompressed ones.
- :class:`TopKCodec` / :class:`RandKCodec` — magnitude / random
  sparsification keeping a fraction ``k`` of the entries; both declare
  ``error_feedback`` so the transport carries the dropped mass forward
  as a residual (Stich et al.'s memory trick) instead of losing it.

Determinism contract: a codec's only randomness comes from the
``numpy.random.Generator`` handed to :meth:`Codec.encode`.  The
transport passes the *client's* generator on the uplink (its state is
staged and committed by the executor), so every executor backend draws
identical bits and produces identical histories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.registry import Registry

#: bytes per float on the reference float32 wire
FLOAT_BYTES = 4
#: bytes per transmitted sparse index (int32 covers every model here)
INDEX_BYTES = 4


@dataclass
class Payload:
    """One encoded vector as it would cross the wire.

    ``data`` holds the codec-specific representation (kept as numpy
    arrays for simulation); ``nbytes`` is the measured wire size of that
    representation — the number the byte-accounting pipeline consumes.
    """

    codec: str
    size: int  # element count of the decoded vector
    data: dict
    nbytes: int


class Codec:
    """Interface: ``encode(vector) -> Payload``, ``decode(Payload) -> vector``.

    Class attributes describe how the transport must drive the codec:

    ``lossless``
        ``decode(encode(v))`` is bitwise ``v`` for float32 input; the
        transport may skip materializing payloads and only meter sizes.
    ``on_delta``
        The uplink should feed the codec the *update* (reference minus
        trained state) instead of the raw state — quantizers and
        sparsifiers are defined on updates, whose distribution is
        centred near zero.
    ``error_feedback``
        Encoding drops mass that must be carried forward in a residual
        (sparsifiers); the transport owns the residual's storage.
    ``stochastic``
        :meth:`encode` draws from the supplied generator.
    """

    name = "base"
    lossless = False
    on_delta = False
    error_feedback = False
    stochastic = False

    def encode(self, vector: np.ndarray, rng: np.random.Generator | None = None) -> Payload:
        raise NotImplementedError

    def decode(self, payload: Payload) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _as_float32(vector: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(vector, dtype=np.float32).ravel()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IdentityCodec(Codec):
    """The float32 wire of the paper's accounting — lossless, 4 bytes/float."""

    name = "identity"
    lossless = True

    def encode(self, vector, rng=None) -> Payload:
        values = self._as_float32(vector)
        return Payload(
            codec=self.name,
            size=values.size,
            data={"values": values},
            nbytes=FLOAT_BYTES * values.size,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        return payload.data["values"]


class Float16Codec(Codec):
    """Cast to half precision: 2 bytes/float, ~3 significant digits kept."""

    name = "float16"

    def encode(self, vector, rng=None) -> Payload:
        values = self._as_float32(vector).astype(np.float16)
        return Payload(
            codec=self.name,
            size=values.size,
            data={"values": values},
            nbytes=values.nbytes,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        return payload.data["values"].astype(np.float32)


class QSGDCodec(Codec):
    """QSGD-style stochastic uniform quantization at ``bits`` per entry.

    Entries are scaled into ``s = 2^bits - 1`` levels of ``max|v|`` and
    rounded *stochastically* to a neighbouring level with probability
    equal to the fractional part — so ``E[decode(encode(v))] = v`` and
    averaging across many parties cancels the quantization noise instead
    of accumulating it.  The wire cost is ``bits + 1`` bits per entry
    (levels plus sign, bit-packed) and one float32 scale; the simulated
    representation keeps whole int8/int16 lanes for speed, but
    ``nbytes`` measures the packed format.
    """

    name = "qsgd"
    on_delta = True
    stochastic = True

    def __init__(self, bits: int = 8):
        if not 1 <= int(bits) <= 16:
            raise ValueError(f"bits must be in [1, 16], got {bits}")
        self.bits = int(bits)
        self._levels = (1 << self.bits) - 1

    def _wire_nbytes(self, size: int) -> int:
        packed = (size * (self.bits + 1) + 7) // 8  # levels + sign bit
        return packed + FLOAT_BYTES  # + the scale

    def encode(self, vector, rng=None) -> Payload:
        if rng is None:
            raise ValueError("QSGDCodec.encode needs a Generator (stochastic rounding)")
        values = self._as_float32(vector)
        scale = float(np.max(np.abs(values))) if values.size else 0.0
        int_dtype = np.int16 if self._levels > 127 else np.int8
        if scale == 0.0:
            quantized = np.zeros(values.size, dtype=int_dtype)
        else:
            normalized = np.abs(values) * (self._levels / scale)
            low = np.floor(normalized)
            up = rng.random(values.size) < (normalized - low)
            quantized = ((low + up) * np.sign(values)).astype(int_dtype)
        return Payload(
            codec=self.name,
            size=values.size,
            data={"q": quantized, "scale": scale},
            nbytes=self._wire_nbytes(values.size),
        )

    def decode(self, payload: Payload) -> np.ndarray:
        scale = payload.data["scale"]
        out = payload.data["q"].astype(np.float32)
        if scale != 0.0:
            out *= np.float32(scale / self._levels)
        return out

    def __repr__(self) -> str:
        return f"QSGDCodec(bits={self.bits})"


class _SparseCodec(Codec):
    """Shared machinery of the keep-``k`` sparsifiers."""

    on_delta = True
    error_feedback = True

    def __init__(self, k: float = 0.1):
        if not 0.0 < float(k) <= 1.0:
            raise ValueError(f"k must be a fraction in (0, 1], got {k}")
        self.k = float(k)

    def _count(self, size: int) -> int:
        return max(1, int(round(self.k * size)))

    def _select(self, values: np.ndarray, rng) -> np.ndarray:
        raise NotImplementedError

    def encode(self, vector, rng=None) -> Payload:
        values = self._as_float32(vector)
        indices = np.sort(self._select(values, rng)).astype(np.int32)
        kept = values[indices]
        return Payload(
            codec=self.name,
            size=values.size,
            data={"indices": indices, "values": kept},
            nbytes=kept.nbytes + indices.nbytes,
        )

    def decode(self, payload: Payload) -> np.ndarray:
        out = np.zeros(payload.size, dtype=np.float32)
        out[payload.data["indices"]] = payload.data["values"]
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k})"


class TopKCodec(_SparseCodec):
    """Keep the ``k`` fraction of entries with the largest magnitude.

    Biased (it always drops the small entries), hence ``error_feedback``:
    the transport accumulates what was dropped and re-offers it to the
    codec next round, which is what makes top-k training converge.
    Wire cost: 4 value bytes + 4 index bytes per kept entry.
    """

    name = "topk"

    def _select(self, values, rng):
        count = self._count(values.size)
        if count >= values.size:
            return np.arange(values.size)
        return np.argpartition(np.abs(values), values.size - count)[-count:]


class RandKCodec(_SparseCodec):
    """Keep a uniformly random ``k`` fraction of the entries.

    Cheaper to select than top-k and unbiased over rounds when paired
    with error feedback.  Indices are metered at 4 bytes each like
    top-k's; a real deployment could elide them by sharing the draw's
    seed, which would halve the payload — the accounting here stays
    conservative.
    """

    name = "randk"
    stochastic = True

    def _select(self, values, rng):
        if rng is None:
            raise ValueError("RandKCodec.encode needs a Generator (random support)")
        count = self._count(values.size)
        if count >= values.size:
            return np.arange(values.size)
        return rng.choice(values.size, size=count, replace=False)


#: codec factories; each takes the shared ``(bits, k)`` knob schema and
#: ignores the knobs that do not apply, so one config covers every codec.
CODECS = Registry("codec")
CODECS.register(
    "identity", lambda bits, k: IdentityCodec(), summary="uncompressed float32 wire"
)
CODECS.register(
    "float16", lambda bits, k: Float16Codec(), summary="dense half-precision"
)
CODECS.register(
    "qsgd",
    lambda bits, k: QSGDCodec(bits=bits),
    summary="stochastic uniform quantization at `bits`",
)
CODECS.register(
    "topk",
    lambda bits, k: TopKCodec(k=k),
    summary="keep the k-fraction largest entries (error feedback)",
)
CODECS.register(
    "randk",
    lambda bits, k: RandKCodec(k=k),
    summary="keep a random k-fraction of entries (error feedback)",
)

#: codec names accepted by :func:`make_codec` and ``FederatedConfig.codec``
CODEC_NAMES = CODECS.names()


def make_codec(name: str, bits: int = 8, k: float = 0.1) -> Codec:
    """Build a codec by name.

    ``bits`` configures :class:`QSGDCodec`; ``k`` (a fraction in (0, 1])
    configures the sparsifiers.  Irrelevant knobs are ignored, so one
    config schema covers every codec.
    """
    return CODECS.build(name, bits, k)
