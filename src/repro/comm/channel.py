"""The federation's transport: codec application + measured byte metering.

A :class:`CommChannel` sits between the server and the clients and owns
everything about how model state crosses the (simulated) network:

- **Downlink** (:meth:`broadcast`): the global state — plus algorithm
  extras such as SCAFFOLD's server control variate — is encoded once per
  round, decoded the way every client would decode it, and the decoded
  state is what clients actually train from.  Per-client downlink bytes
  are measured from the encoded payloads.
- **Uplink** (:meth:`encode_upload`): each party's trained state — plus
  extras such as SCAFFOLD's control-variate delta — is encoded with the
  *client's* generator (so every executor backend reproduces the serial
  draws bit for bit), decoded into what the server would reconstruct, and
  metered.  Error-feedback codecs return a residual the executor stores
  in ``ClientResult.client_state`` under :data:`RESIDUAL_KEY`; the
  server commits it into ``client.state`` through the same purity
  contract every other per-party state uses.

Stream policies
---------------
``on_delta`` codecs compress the uplink *update* (broadcast state minus
trained state) rather than the raw state, and reconstruct
``reference - decode(payload)`` server-side.  On the downlink,
error-feedback codecs compress the change against the previous decoded
broadcast (with a server-side residual; the first round ships dense), so
the broadcast stream stays incremental; other codecs encode the absolute
state.  Algorithm extras ship through shape-preserving codecs
(identity/float16/qsgd) but stay dense float32 under sparsifiers —
sparsifying a control variate would need its own residual stream and
breaks the correction it implements — while still being metered.

The identity codec short-circuits every transform: arrays pass through
untouched (keeping training bitwise identical to the pre-codec code
path) and only the measured float32 sizes are recorded — which equal the
closed-form ``4 bytes x floats`` accounting this subsystem replaces.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.comm.codecs import FLOAT_BYTES, Codec, make_codec
from repro.grad.serialize import state_dict_to_vector, vector_to_state_dict

#: ``client.state`` / ``ClientResult.client_state`` key carrying a
#: party's uplink error-feedback residual between rounds
RESIDUAL_KEY = "comm_residual"


def _state_floats(state: dict) -> int:
    return sum(int(np.asarray(value).size) for value in state.values())


def _extras_floats(extras: dict) -> int:
    total = 0
    for value in extras.values():
        if isinstance(value, (list, tuple)):
            total += sum(int(np.asarray(entry).size) for entry in value)
        elif isinstance(value, np.ndarray):
            total += int(value.size)
        elif isinstance(value, numbers.Number):
            total += 1
    return total


class CommChannel:
    """Apply one codec to both transport directions and meter the bytes.

    Parameters
    ----------
    codec:
        The :class:`~repro.comm.codecs.Codec` both directions use.
    seed:
        Seeds the server-side generator used by stochastic codecs on the
        downlink (the uplink uses each client's own generator, which is
        what keeps serial and parallel execution identical).
    """

    def __init__(self, codec: Codec, seed: int = 0):
        self.codec = codec
        self._down_rng = np.random.default_rng(seed)
        # Incremental-broadcast state for error-feedback codecs: the
        # vector every client currently holds, and the mass the last
        # encoding dropped.
        self._down_reference: np.ndarray | None = None
        self._down_residual: np.ndarray | None = None

    @classmethod
    def from_config(cls, config) -> "CommChannel":
        """Build the channel a :class:`FederatedConfig` asks for."""
        codec = make_codec(config.codec, bits=config.codec_bits, k=config.codec_k)
        return cls(codec, seed=config.seed + 104729)

    # ------------------------------------------------------------------
    # Downlink
    # ------------------------------------------------------------------
    def broadcast(
        self, state: dict, extras: dict, keys: list[str]
    ) -> tuple[dict, dict, int]:
        """Encode one round's broadcast; returns what clients receive.

        Returns ``(state_for_clients, extras_for_clients, nbytes)`` where
        ``nbytes`` is the measured *per-client* downlink cost.
        """
        if self.codec.lossless:
            nbytes = FLOAT_BYTES * (_state_floats(state) + _extras_floats(extras))
            return state, extras, nbytes
        vector = state_dict_to_vector(state, keys=keys)
        if self.codec.error_feedback:
            decoded, state_nbytes = self._incremental_broadcast(vector)
        else:
            payload = self.codec.encode(vector, self._down_rng)
            decoded, state_nbytes = self.codec.decode(payload), payload.nbytes
        state_out = vector_to_state_dict(decoded, state, keys=keys)
        extras_out, extras_nbytes = self.encode_extras(extras, self._down_rng)
        return state_out, extras_out, state_nbytes + extras_nbytes

    def _incremental_broadcast(self, vector: np.ndarray) -> tuple[np.ndarray, int]:
        """Sparsifier downlink: ship the change since the last broadcast."""
        if self._down_reference is None:
            # Warm start: the first broadcast is dense — sparsifying a
            # full model from zero would hand clients a mostly-empty net.
            self._down_reference = vector.copy()
            return self._down_reference, FLOAT_BYTES * vector.size
        target = vector - self._down_reference
        if self._down_residual is not None:
            target = target + self._down_residual
        payload = self.codec.encode(target, self._down_rng)
        decoded = self.codec.decode(payload)
        self._down_residual = target - decoded
        self._down_reference = self._down_reference + decoded
        return self._down_reference, payload.nbytes

    # ------------------------------------------------------------------
    # Uplink
    # ------------------------------------------------------------------
    def encode_upload(
        self,
        state: dict,
        extras: dict,
        reference: np.ndarray | None,
        keys: list[str] | None,
        rng: np.random.Generator,
        residual: np.ndarray | None = None,
        metadata_floats: int = 0,
    ) -> tuple[dict, dict, int, np.ndarray | None]:
        """Encode one party's upload as the server would receive it.

        ``reference`` is the flat broadcast vector the party trained from
        (needed by ``on_delta`` codecs; may be ``None`` for the identity
        codec).  ``metadata_floats`` meters aggregation scalars the
        algorithm ships beyond its array streams (FedNova's ``tau_i``).

        Returns ``(state, extras, nbytes, new_residual)``; the state and
        extras are what the server reconstructs after decoding.
        """
        if self.codec.lossless:
            nbytes = FLOAT_BYTES * (
                _state_floats(state) + _extras_floats(extras) + metadata_floats
            )
            return state, extras, nbytes, None
        vector = state_dict_to_vector(state, keys=keys)
        target = reference - vector if self.codec.on_delta else vector
        if self.codec.error_feedback and residual is not None:
            target = target + residual
        payload = self.codec.encode(target, rng)
        decoded = self.codec.decode(payload)
        new_residual = target - decoded if self.codec.error_feedback else None
        out = reference - decoded if self.codec.on_delta else decoded
        state_out = vector_to_state_dict(out, state, keys=keys)
        extras_out, extras_nbytes = self.encode_extras(extras, rng)
        nbytes = payload.nbytes + extras_nbytes + FLOAT_BYTES * metadata_floats
        return state_out, extras_out, nbytes, new_residual

    # ------------------------------------------------------------------
    # Algorithm extras (control variates and friends)
    # ------------------------------------------------------------------
    def encode_extras(
        self, extras: dict, rng: np.random.Generator
    ) -> tuple[dict, int]:
        """Encode a payload dict's arrays; meter everything in it.

        Values may be arrays, lists/tuples of arrays, or scalars.  Under
        sparsifiers the arrays pass through dense (see module docstring)
        at float32 cost; shape-preserving codecs genuinely round-trip
        them.  Scalars are metered at one float each.
        """
        if not extras:
            return extras, 0
        if self.codec.lossless or self.codec.error_feedback:
            return extras, FLOAT_BYTES * _extras_floats(extras)
        out: dict = {}
        nbytes = 0
        for key, value in extras.items():
            if isinstance(value, (list, tuple)):
                coded = []
                for entry in value:
                    decoded, entry_nbytes = self._roundtrip_array(entry, rng)
                    coded.append(decoded)
                    nbytes += entry_nbytes
                out[key] = type(value)(coded)
            elif isinstance(value, np.ndarray):
                decoded, entry_nbytes = self._roundtrip_array(value, rng)
                out[key] = decoded
                nbytes += entry_nbytes
            else:
                if isinstance(value, numbers.Number):
                    nbytes += FLOAT_BYTES
                out[key] = value
        return out, nbytes

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint_state(self) -> dict:
        """Mutable transport state a run checkpoint must carry.

        Covers the downlink generator (stochastic codecs) and the
        incremental-broadcast reference/residual (error-feedback codecs)
        so a resumed run's wire stream is bitwise identical to the
        uninterrupted one.
        """
        return {
            "down_rng": self._down_rng.bit_generator.state,
            "down_reference": (
                None if self._down_reference is None else self._down_reference.copy()
            ),
            "down_residual": (
                None if self._down_residual is None else self._down_residual.copy()
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`checkpoint_state`."""
        self._down_rng.bit_generator.state = state["down_rng"]
        reference = state["down_reference"]
        residual = state["down_residual"]
        self._down_reference = None if reference is None else np.asarray(reference).copy()
        self._down_residual = None if residual is None else np.asarray(residual).copy()

    def _roundtrip_array(
        self, array: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, int]:
        array = np.asarray(array)
        payload = self.codec.encode(array.reshape(-1), rng)
        return self.codec.decode(payload).reshape(array.shape), payload.nbytes

    def __repr__(self) -> str:
        return f"CommChannel(codec={self.codec!r})"
