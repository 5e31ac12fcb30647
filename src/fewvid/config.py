"""Flat run configuration: defaults, key=value config files, flag overrides.

Precedence is defaults < config file < command-line flags. Files are plain
text, one `key = value` per line, `#` comments allowed; unknown keys are
rejected so typos fail loudly.
"""

import dataclasses
import math
import typing
from dataclasses import dataclass

from .data import SyntheticConfig, read_file
from .errors import DataError
from .losses import LossConfig


@dataclass
class RunConfig(LossConfig, SyntheticConfig):
    """Every configuration key. The corpus keys (seed included) and the
    objective keys are inherited, so each has one declaration, one default
    and one range check; the keys below are the run's own."""
    # model head
    d: int = 64
    kernel_width: int = 8
    attn_width: int = 32
    # pseudo-labeling
    t_n: float = 0.25
    top_m: int = 0  # 0 picks max(2, ceil(T/8)) per video
    # optimization
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 16
    epochs: int = 30
    # episodic evaluation
    K: int = 5
    n: int = 1
    q: int = 5
    episodes: int = 100
    # plumbing
    # jobs accepts only 1: evaluation runs in the calling process. The key is
    # kept while benchmarks/run.py still writes it; it goes once that stops.
    jobs: int = 1
    data_dir: str = "dataset"
    ckpt: str = "model.ckpt"
    out: str = ""

    def synthetic_config(self) -> SyntheticConfig:
        """The corpus settings: a RunConfig is a SyntheticConfig."""
        return self

    def validate(self):
        SyntheticConfig.validate(self)
        LossConfig.validate(self)
        for name in ("d", "kernel_width", "attn_width", "batch_size", "epochs",
                     "K", "n", "q", "episodes"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.jobs != 1:
            raise DataError(f"jobs must be 1 (evaluation runs in one process), got {self.jobs}")
        if self.lr <= 0:
            raise DataError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise DataError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.top_m < 0:
            raise DataError(f"top_m must be >= 0, got {self.top_m}")
        return self


# the bases use postponed annotations, so their field types are strings
FIELD_TYPES = typing.get_type_hints(RunConfig)

TRUE_WORDS = {"true", "1", "yes", "on"}
FALSE_WORDS = {"false", "0", "no", "off"}


def parse_value(key: str, text: str):
    typ = FIELD_TYPES[key]
    text = text.strip()
    try:
        if typ is bool:
            low = text.lower()
            if low in TRUE_WORDS:
                return True
            if low in FALSE_WORDS:
                return False
            raise ValueError(text)
        value = typ(text)
    except ValueError as err:
        raise DataError(f"config key {key!r}: cannot parse {text!r} as {typ.__name__}") from err
    if typ is float and not math.isfinite(value):
        raise DataError(f"config key {key!r}: {text!r} is not a finite number")
    return value


def read_config_file(path) -> dict:
    lines = read_file(path, "config file", text=True).splitlines()
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = parse_value(key, text)
    return values


def build_config(config_path=None, overrides: dict = None) -> RunConfig:
    cfg = RunConfig()
    if config_path:
        for key, value in read_config_file(config_path).items():
            setattr(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def describe_keys() -> str:
    lines = ["configuration keys (config file and defaults):"]
    for f in dataclasses.fields(RunConfig):
        lines.append(f"  {f.name} = {f.default!r} ({FIELD_TYPES[f.name].__name__})")
    return "\n".join(lines)
