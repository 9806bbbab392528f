"""Seeded workload inputs.

The seed draws only non-geometric inputs, each within +-20 % of the reference
device: the source amplitude and frequency, the perturbation amplitude, the
winding conductivity and the yoke conductivity and permeability.  (The winding
permeability is not a configuration key; the homogenized winding is
non-magnetic.)  Mesh sizes and step counts are therefore the same for every
seed.  Seed 0 is the reference device, ``ExperimentConfig()`` itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import fields, replace

from foilfem.experiments import ExperimentConfig

VARIED_KEYS = (
    "amplitude",
    "frequency",
    "perturbation_amplitude",
    "winding_conductivity",
    "yoke_conductivity",
    "yoke_permeability",
)
SPREAD = 0.2


def drawn_values(seed: int) -> dict:
    """The varied configuration values for ``seed``; seed 0 gives the defaults."""
    base = ExperimentConfig()
    if seed == 0:
        return {key: getattr(base, key) for key in VARIED_KEYS}
    rng = random.Random(seed)
    return {
        key: getattr(base, key) * rng.uniform(1.0 - SPREAD, 1.0 + SPREAD) for key in VARIED_KEYS
    }


def make_config(seed: int) -> ExperimentConfig:
    return replace(ExperimentConfig(), **drawn_values(seed))


def config_file_text(seed: int) -> str:
    """A ``key = value`` file that ``foilfem.experiments.load_config`` turns into ``make_config(seed)``."""
    return "".join(f"{key} = {value!r}\n" for key, value in drawn_values(seed).items())


def config_hash(cfg: ExperimentConfig) -> str:
    """``cfg.config_hash()``, or the same digest of its fields if the method is gone."""
    method = getattr(cfg, "config_hash", None)
    if method is not None:
        return method()
    text = "".join(f"{f.name} = {getattr(cfg, f.name)!r}\n" for f in fields(cfg))
    return hashlib.sha256(text.encode("ascii")).hexdigest()
