"""Versioned JSON scenario configuration tying all sub-configs together."""
from __future__ import annotations

import json
import os
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path

from .core import AgentState, JointState
from .errors import SchemaError
from .inference import InferenceConfig, PriorSpec
from .planner import Scenario
from .rewards import RewardConfig
from .sampling import SamplerConfig

SCHEMA_VERSION = 1
# Upper bounds on the size fields, checked when a config loads, before anything is allocated.
# A build holds several (side, states, candidates, horizon_steps + 1) float arrays; replay holds
# (frames, n_particles, candidates) log-likelihoods, about 0.5 GB at 100,000 particles on a
# 40-frame pair.  Past these bounds a run cannot fit in memory, or numpy cannot index it.
MAX_HORIZON_STEPS = 1_000
MAX_PARTICLES = 1_000_000
# Each fan has up to one candidate per terminal speed, and the safety matrix's temporaries hold
# candidates**2 * horizon_steps floats three times over: at 100 candidates and the horizon bound one
# state's are about 0.25 GB.  The bound also refuses longer lists that would run at short horizons.
MAX_TERMINAL_SPEEDS = 100


@dataclass(frozen=True)
class PathSpec:
    file: str
    speed_limit: float


@dataclass(frozen=True)
class ScenarioConfig:
    """Serializable description of a scenario plus workflow knobs."""

    path_ego: PathSpec
    path_other: PathSpec
    initial: JointState
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    seed: int = 0
    tracks_file: str | None = None
    frame_period_ms: int = 50
    max_steps: int = 200
    base_dir: Path = field(default_factory=Path)

    def resolve(self, name: str) -> Path:
        p = Path(name)
        return p if p.is_absolute() else self.base_dir / p

    def load_scenario(self) -> Scenario:
        from .tracks import load_path_csv

        ego = load_path_csv(self.resolve(self.path_ego.file), self.path_ego.speed_limit)
        other = load_path_csv(self.resolve(self.path_other.file), self.path_other.speed_limit)
        return Scenario.create(ego, other, self.initial, self.sampler, self.rewards)


def _name(context: str, key: str) -> str:
    return f"{context}.{key}" if context else key


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise SchemaError(f"config is missing {_name(context, key)}")
    return mapping[key]


def _integer(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """A JSON integer; floats and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"config {name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"config {name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise SchemaError(f"config {name} must be at most {maximum}, got {value}")
    return value


def _number(value, name: str):
    """A finite JSON number, returned as given so the config echo keeps its form.

    NaN fails the bound comparison, as do infinities and integers too large
    for a float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise SchemaError(f"config {name} must be a finite number, got {value!r}")
    return value


def _numbers(value, name: str, length: int | None = None) -> tuple:
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise SchemaError(f"config {name} must be a list of {length or 'finite'} numbers, got {value!r}")
    return tuple(_number(x, f"{name}[{i}]") for i, x in enumerate(value))


def _of_type(kind, what: str):
    def check(value, name: str):
        if not isinstance(value, kind):
            raise SchemaError(f"config {name} must be {what}, got {value!r}")
        return value
    return check


def _fractions(value, name: str) -> tuple:
    """The terminal-speed fractions: a list of at most MAX_TERMINAL_SPEEDS finite numbers."""
    if isinstance(value, list) and len(value) > MAX_TERMINAL_SPEEDS:
        raise SchemaError(f"config {name} must hold at most {MAX_TERMINAL_SPEEDS} numbers, got {len(value)}")
    return _numbers(value, name)


_triple = partial(_numbers, length=3)
_object = _of_type(dict, "an object")
_boolean = _of_type(bool, "true or false")
_string = _of_type(str, "a string")


def _file_name(kind, what: str):
    """The check of a key naming a file, of type kind (what names it): a name the OS cannot open is a data error."""
    def check(value, name: str):
        value = _of_type(kind, what)(value, name)
        try:
            if not isinstance(value, str) or b"\0" not in os.fsencode(value):
                return value
        except UnicodeEncodeError:  # a lone surrogate the file system's encoding refuses
            pass
        raise SchemaError(f"config {name} must be a file name the OS can open, got {value!r}")
    return check


def _checked(obj, context: str, kinds: dict) -> dict:
    """A copy of the object obj with each field checked by its entry in kinds.

    A field kinds does not name is a SchemaError, so a misspelt key cannot
    silently leave its default in place.
    """
    obj = _object(obj, context or "root")
    for key in obj:
        if key not in kinds:
            raise SchemaError(f"config has unknown key {_name(context, key)}")
    return {key: kinds[key](value, _name(context, key)) for key, value in obj.items()}


def _float(value, name: str) -> float:
    return float(_number(value, name))


def _positive(value, name: str) -> float:
    value = _float(value, name)
    if value <= 0.0:
        raise SchemaError(f"config {name} must be positive, got {value}")
    return value


def _section(cls, kinds: dict):
    """The check of a config block whose keys are the fields of the dataclass cls.

    A missing key takes the field's default; a field with no default is required.
    """
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]

    def check(obj, context: str):
        obj = _checked(obj, context, kinds)
        for key in required:
            _require(obj, key, context)
        return cls(**obj)
    return check


def _ego_other(check):
    """The check of a block with one entry per role, ego and other, each checked by check."""
    return partial(_checked, kinds={"ego": check, "other": check})


_SAMPLER_FIELDS = {
    "horizon_steps": partial(_integer, maximum=MAX_HORIZON_STEPS),
    "terminal_speed_fractions": _fractions,
    "forbid_singleton": _boolean,
    **dict.fromkeys(("dt", "accel_min", "accel_max"), _number),
}
_REWARD_FIELDS = {
    "theta_ego": _triple, "theta_other": _triple,
    **dict.fromkeys(("beta", "d0", "a0", "j0", "sigma_d", "sigma_c"), _number),
}
_PRIOR_FIELDS = {"kind": _string, "alpha": _triple, "fractions": _triple, "concentration": _float}
_INFERENCE_FIELDS = {
    "n_particles": partial(_integer, maximum=MAX_PARTICLES),
    "window_r": _integer,
    "prior": _section(PriorSpec, _PRIOR_FIELDS),
    "init": _string,
    **dict.fromkeys(("resample", "growing_window"), _boolean),
}
_CONFIG_FIELDS = {
    "schema_version": _integer,  # its value is checked first
    "seed": partial(_integer, minimum=0),
    "paths": _ego_other(_section(PathSpec, {"file": _file_name(str, "a string"), "speed_limit": _positive})),
    "initial": _ego_other(_section(AgentState, dict.fromkeys(("s", "v", "d"), _float))),
    "sampler": _section(SamplerConfig, _SAMPLER_FIELDS),
    "rewards": _section(RewardConfig, _REWARD_FIELDS),
    "inference": _section(InferenceConfig, _INFERENCE_FIELDS),
    "tracks": _file_name((str, type(None)), "a file name"),
    **dict.fromkeys(("frame_period_ms", "max_steps"), partial(_integer, minimum=1)),
}


def config_from_dict(data: dict, base_dir: Path | str = ".") -> ScenarioConfig:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    try:
        top = _checked(data, "", _CONFIG_FIELDS)
        paths, initial = _require(top, "paths", ""), _require(top, "initial", "")
        del top["schema_version"], top["paths"], top["initial"]
        if "tracks" in top:
            top["tracks_file"] = top.pop("tracks")
        return ScenarioConfig(
            path_ego=_require(paths, "ego", "paths"),
            path_other=_require(paths, "other", "paths"),
            initial=JointState(ego=_require(initial, "ego", "initial"), other=_require(initial, "other", "initial")),
            base_dir=Path(base_dir),
            **top,
        )
    except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: the repr of a value nested too deep
        raise SchemaError(f"invalid config value: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past int's digit limit, nesting too deep
        raise SchemaError(f"config cannot be read: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError("config root must be a JSON object")
    return config_from_dict(data, base_dir=path.parent)


def _block(obj) -> dict:
    """A config block as JSON: the dataclass obj's fields, tuples as lists, nested blocks as objects.

    A field holding None is left out.
    """
    data = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None:
            data[f.name] = _block(value) if is_dataclass(value) else list(value) if isinstance(value, tuple) else value
    return data


def config_to_dict(cfg: ScenarioConfig) -> dict:
    data = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "paths": {"ego": _block(cfg.path_ego), "other": _block(cfg.path_other)},
        "initial": {"ego": _block(cfg.initial.ego), "other": _block(cfg.initial.other)},
        "sampler": _block(cfg.sampler),
        "rewards": _block(cfg.rewards),
        "inference": _block(cfg.inference),
        "frame_period_ms": cfg.frame_period_ms,
        "max_steps": cfg.max_steps,
    }
    if cfg.tracks_file is not None:
        data["tracks"] = cfg.tracks_file
    return data


def write_json(path, data) -> None:
    """Write data as 2-space-indented JSON with sorted keys and a final newline, the format of every JSON file written."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def save_config(cfg: ScenarioConfig, path) -> None:
    """Write cfg at path, its relative file names rewritten against path's directory, where load_config resolves them.

    Both directories are resolved through the file system, as opening
    base_dir / name does, so a '..' after a symlinked directory names the
    same file from the new place; the file's own name is kept, symlink or not.
    """
    data = config_to_dict(cfg)
    target_dir = os.path.realpath(Path(path).parent)
    for block, key in ((data["paths"]["ego"], "file"), (data["paths"]["other"], "file"), (data, "tracks")):
        if key in block and not Path(block[key]).is_absolute():
            name = cfg.resolve(block[key])
            block[key] = os.path.relpath(os.path.join(os.path.realpath(name.parent), name.name), target_dir)
    write_json(path, data)
