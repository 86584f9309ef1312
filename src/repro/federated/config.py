"""The flat, read-only view of a run's settings that engines read.

Every knob is declared, defaulted and range-checked once, on its
:mod:`repro.spec` section dataclass.  :class:`FederatedConfig` only
flattens the engine-facing sections under their flat override names
(``config.lr``, ``config.codec_bits``) and adds the run's derived seed.
"""

from __future__ import annotations

from repro.spec import OVERRIDE_PATHS, SECTIONS

#: the RunSpec sections the federated layer reads
ENGINE_SECTIONS = ("train", "comm", "faults", "population", "exec")
#: flat name -> (section, field) of every knob the view carries
_PATHS = {
    name: path for name, path in OVERRIDE_PATHS.items() if path[0] in ENGINE_SECTIONS
}


class FederatedConfig:
    """A run's engine-facing knobs as flat, read-only attributes.

    ``FederatedConfig(lr=0.05, codec="qsgd")`` starts every section at its
    defaults and applies the given flat names; :meth:`from_spec` views a
    :class:`~repro.spec.RunSpec`.  Both doors run the sections' checks
    (``ValueError``) and read every value once, at construction.
    """

    def __init__(self, *, seed: int = 0, **flat):
        unknown = sorted(set(flat) - set(_PATHS))
        if unknown:
            raise TypeError(f"unknown config knobs {unknown}; known: {sorted(_PATHS)}")
        fields: dict[str, dict] = {name: {} for name in ENGINE_SECTIONS}
        for name, value in flat.items():
            section, attr = _PATHS[name]
            fields[section][attr] = value
        sections = {name: SECTIONS[name](**fields[name]) for name in ENGINE_SECTIONS}
        self._bind(sections, seed)

    @classmethod
    def from_spec(cls, spec) -> "FederatedConfig":
        """The view ``spec`` runs under.

        Sampling and local shuffling draw from ``spec.seed + 41``, so they
        stay independent of the dataset, partition and model streams.
        """
        config = cls.__new__(cls)
        sections = {name: getattr(spec, name) for name in ENGINE_SECTIONS}
        config._bind(sections, spec.seed + 41)
        return config

    def _bind(self, sections: dict, seed: int) -> None:
        problems = [p for section in sections.values() for p in section.problems()]
        if problems:
            raise ValueError("; ".join(problems))
        for name, (section, attr) in _PATHS.items():
            self.__dict__[name] = getattr(sections[section], attr)
        self.__dict__["seed"] = seed

    def __setattr__(self, name, value):
        raise AttributeError(f"FederatedConfig is read-only; cannot set {name!r}")

    def __repr__(self) -> str:
        knobs = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"FederatedConfig({knobs})"
