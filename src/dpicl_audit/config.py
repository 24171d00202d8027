"""Run configuration: one YAML/JSON document, checked before any work.

Flags can override individual keys (``--set audit.seed=7``); the document
with its overrides is what gets checked. ``KEYS`` holds every key a config
may have, section by section, with the type and range its value must have,
its default and whether it is required; a key it does not name is a
mistake. A checked config holds each value cast to its key's type and each
key it leaves out at its default.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import yaml

from .audit import TASKS, THREAT_MODELS, AuditConfig
from .gaussian_model import K_RULES
from .gdp import DEFAULT_DELTA_TARGET
from .mechanisms import SENSITIVITY_MODES, Exemplar, MechanismConfig, NeighboringPair
from .oracles import (
    CanaryDetector,
    FileTransport,
    HttpTransport,
    ReplayOracle,
    Responder,
    SignalPair,
    read_lines,
)


# libyaml's loader where PyYAML was built with it: the same documents as
# SafeLoader (the constructors and resolvers are shared), parsed in C.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(Exception):
    """The run configuration is unusable; nothing was computed."""


class Key(NamedTuple):
    """The check of one config value, with JSON Schema's meaning: an
    ``integer`` may be an integral float, no number is a bool, and a
    ``number`` is finite as a float. Bounds are inclusive (``ge``, ``le``)
    or exclusive (``gt``, ``lt``). A loaded config holds an ``integer`` as
    an int and a ``number`` as a float, and ``default`` where the key is
    left out; a key with neither a default nor ``required`` is optional."""

    type: Optional[str] = None
    enum: tuple = ()
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None
    min_items: int = 0
    items: Optional["Key"] = None
    required: bool = False
    default: object = None


_TYPES = {
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
    "number": lambda v: not isinstance(v, bool) and isinstance(v, (int, float)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "array": lambda v: isinstance(v, list),
}

_CASTS = {"integer": int, "number": float}

_STRING = Key("string")

# Every key a config may have; a mapping is a section of further keys.
KEYS: dict = {
    "task": Key(enum=TASKS, default="classification"),
    "threat_model": Key(enum=THREAT_MODELS, default="white_box"),
    "mechanism": {
        "eps_theory": Key("number", gt=0, required=True),
        "delta": Key("number", gt=0, lt=1, required=True),
        "num_partitions": Key("integer", ge=2, required=True),
        "sensitivity_mode": Key(enum=tuple(SENSITIVITY_MODES), default="paper_voting"),
        "candidate_pool_size": Key("integer", ge=1, default=10),
        "classic_calibration": Key("boolean", default=False),
    },
    "audit": {
        "n_llm": Key("integer", ge=1, required=True),
        "n_sample": Key("integer", ge=1, default=400_000),
        "confidence": Key("number", gt=0, lt=1, default=0.95),
        "delta_target": Key("number", gt=0, lt=1, default=DEFAULT_DELTA_TARGET),
        "seed": Key("integer", ge=0, default=0),
        "workers": Key("integer", ge=1, default=1),
    },
    "oracle": {
        "kind": Key(enum=("canary_detector", "replay", "responder_file", "responder_http"),
                    default="canary_detector"),
        "flip_probability": Key("number", ge=0, le=0.5, default=0.0),
        "classes": Key("array", min_items=2, items=_STRING, default=["yes", "no"]),
        "yes_index": Key("integer", ge=0, default=0),
        "no_index": Key("integer", ge=0, default=1),
        "records_path": _STRING,
        "responses_path": _STRING,
        "requests_log_path": _STRING,
        "emit_requests_only": Key("boolean"),
        "endpoint": _STRING,
        "auth_header": _STRING,
        "auth_token_env": _STRING,
        "template_id": _STRING,
        "decode": {
            "temperature": Key("number", ge=0, default=0.0),
            "max_tokens": Key("integer", ge=1, default=16),
        },
        "retry_budget": Key("integer", ge=0, default=0),
    },
    "signal_pair": {
        "distance": Key("number", gt=0, le=2, required=True),
        "dimension": Key("integer", ge=2, default=16),
        "from_catalog": Key("boolean", default=True),
    },
    "context": {
        "num_exemplars": Key("integer", ge=2, default=8),
        "file": _STRING,
        "canary_index": Key("integer", ge=0, default=0),
        "canary_text": Key("string", default="the canary exemplar under audit"),
        "pad_to_partitions": Key("boolean", default=False),
    },
    "simulate": {
        "T_values": Key("array", min_items=1, items=Key("integer", ge=1), required=True),
        "k_rule": Key(enum=K_RULES, default="all"),
        "k_fixed": Key("integer", ge=0),
        "b": Key("number", ge=0, le=1, required=True),
        "sigma": Key("number", gt=0, required=True),
        "delta_target": Key("number", gt=0, lt=1, default=DEFAULT_DELTA_TARGET),
    },
    "output": {
        "directory": Key("string", default="out"),
        "records": Key("string", default="records.jsonl"),
        "report_json": Key("string", default="report.json"),
        "report_csv": Key("string", default="reports.csv"),
        "sweep_csv": Key("string", default="sweep.csv"),
    },
}

# The sections each command reads whose required keys have no default.
COMMAND_SECTIONS = {
    "collect": ("mechanism", "audit"),
    "audit": ("mechanism", "audit"),
    "simulate": ("simulate",),
}


def _reject(path: str, message: str):
    raise ConfigError(f"config violates the schema at {path}: {message}")


def _check_value(value, key: Key, path: str) -> None:
    """Reject one value that breaks its check, in JSON Schema's words."""
    if key.enum and value not in key.enum:
        _reject(path, f"{value!r} is not one of {list(key.enum)!r}")
    if key.type and not _TYPES[key.type](value):
        _reject(path, f"{value!r} is not of type {key.type!r}")
    # NaN, an infinity, or an int past float's range: none casts to a usable float
    if key.type == "number" and not abs(value) <= sys.float_info.max:
        _reject(path, f"{value!r} is not a finite number")
    if key.ge is not None and value < key.ge:
        _reject(path, f"{value!r} is less than the minimum of {key.ge!r}")
    if key.gt is not None and value <= key.gt:
        _reject(path, f"{value!r} is less than or equal to the minimum of {key.gt!r}")
    if key.le is not None and value > key.le:
        _reject(path, f"{value!r} is greater than the maximum of {key.le!r}")
    if key.lt is not None and value >= key.lt:
        _reject(path, f"{value!r} is greater than or equal to the maximum of {key.lt!r}")
    if key.type == "array":
        if len(value) < key.min_items:
            _reject(path, f"{value!r} has fewer than {key.min_items} items")
        for index, item in enumerate(value):
            _check_value(item, key.items, f"{path}/{index}")


def _check_section(node: dict, keys: dict, path: str) -> None:
    """Reject the first key of ``node`` that ``keys`` does not name or whose
    value breaks its check."""
    for name, value in node.items():
        where = f"{path}/{name}" if path else str(name)
        key = keys.get(name)
        if key is None:
            _reject(where, "unknown key")
        if not isinstance(key, dict):
            _check_value(value, key, where)
        elif isinstance(value, dict):
            _check_section(value, key, where)
        else:
            _reject(where, f"{value!r} is not of type 'object'")


def _check_config(config: dict, command: str) -> None:
    """Raise ConfigError at the first key of ``config`` that ``KEYS`` does not
    name, whose value breaks its check, or that is required and missing.

    A section's required keys must be there when ``command`` reads the
    section or the config writes it, so a section the config leaves out
    holds no command to keys it never reads.
    """
    _check_section(config, KEYS, "")
    for section in (*COMMAND_SECTIONS[command], *config):
        keys = KEYS[section]
        if isinstance(keys, dict):
            for name, key in keys.items():
                if isinstance(key, Key) and key.required and name not in config.get(section, {}):
                    _reject(f"{section}/{name}", "a required key is missing")


def _cast(value, key: Key):
    if key.type == "array":
        return [_cast(item, key.items) for item in value]
    cast = _CASTS.get(key.type)
    return value if cast is None else cast(value)


def _fill(node: dict, keys: dict) -> None:
    """Cast each value of a checked ``node`` to its key's type and add each
    key it leaves out that has a default. A section with a required key is
    added only when the config writes it."""
    for name, key in keys.items():
        if isinstance(key, dict):
            if name in node or not any(isinstance(k, Key) and k.required for k in key.values()):
                _fill(node.setdefault(name, {}), key)
        elif name in node:
            node[name] = _cast(node[name], key)
        elif key.default is not None:
            node[name] = _cast(key.default, key)


def apply_override(config: dict, assignment: str) -> None:
    """Apply one ``dotted.key=value`` override in place; values parse as YAML."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key.path=value")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    try:
        value = yaml.load(raw, Loader=_YAML_LOADER)
    # libyaml takes UTF-8 only: an undecodable command-line byte, which Python
    # passes on as a lone surrogate, fails to encode rather than to parse
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        raise ConfigError(f"cannot parse override value {raw!r}: {exc}") from exc
    node = config
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {dotted!r} crosses a non-mapping node")
    node[keys[-1]] = value


def load_run_config(path: str | Path, overrides: Optional[list[str]] = None,
                    command: str = "audit") -> dict:
    """Read, apply overrides, check for ``command`` (see ``_check_config``),
    and cast and fill in the defaults (see ``_fill``). Raises ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        config = yaml.load(path.read_text("utf-8"), Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid YAML/JSON: {exc}") from exc
    if config is None:
        config = {}
    if not isinstance(config, dict):
        raise ConfigError("config document must be a mapping")
    for assignment in overrides or []:
        apply_override(config, assignment)
    _check_config(config, command)
    _fill(config, KEYS)
    return config


def build_audit_config(config: dict) -> AuditConfig:
    audit = {name: value for name, value in config["audit"].items() if name != "workers"}
    oracle = config["oracle"]
    return AuditConfig(mechanism=MechanismConfig(**config["mechanism"]), task=config["task"],
                       threat_model=config["threat_model"], **audit,
                       yes_index=oracle["yes_index"], no_index=oracle["no_index"])


def load_context_exemplars(config: dict) -> list[Exemplar]:
    ctx = config["context"]
    if ctx.get("file"):
        path = Path(ctx["file"])
        if not path.exists():
            raise ConfigError(f"context file not found: {path}")
        exemplars = []
        for number, line in enumerate(read_lines(path, "context file", ConfigError), 1):
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                payload = None
            if not (isinstance(payload, dict) and isinstance(payload.get("input"), str)):
                raise ConfigError(f"context line {path}:{number} is not a JSON object "
                                  "with a string 'input'")
            exemplars.append(Exemplar(text_in=payload["input"], text_out=payload.get("output", "")))
        if len(exemplars) < 2:
            raise ConfigError("context file must hold at least two exemplars")
        return exemplars
    n = ctx["num_exemplars"]
    return [Exemplar(text_in=f"reference exemplar input {i}", text_out=f"reference output {i}")
            for i in range(n)]


def build_neighboring_pair(config: dict) -> NeighboringPair:
    """The canary-in/canary-out contexts; raises ValueError when the canary
    index is out of range or the contexts do not split into the configured
    partitions."""
    ctx = config["context"]
    canary = Exemplar(text_in=ctx["canary_text"], text_out="canary output")
    pair = NeighboringPair(load_context_exemplars(config), canary, ctx["canary_index"],
                           pad=ctx["pad_to_partitions"])
    pair.partitions(config["mechanism"]["num_partitions"])
    return pair


def build_signal_pair(config: dict) -> Optional[SignalPair]:
    section = config.get("signal_pair")
    if section is None:
        if config["task"] == "generation":
            raise ConfigError("generation audits need a signal_pair section")
        return None
    distance, dimension = section["distance"], section["dimension"]
    if section["from_catalog"]:
        try:
            return SignalPair.from_catalog(distance, dimension)
        except KeyError:
            pass
    return SignalPair.synthetic(distance, dimension)


def build_oracle(config: dict, signal_pair: Optional[SignalPair], render_only: bool = False):
    """The configured oracle: a replay of a records file, the canary detector,
    or a responder over the file or HTTP transport. The task sets its answers:
    votes over ``oracle.classes``, or the signal pair's embeddings.

    With ``render_only`` it is the configured responder with no transport,
    which renders requests and sends none, whatever ``oracle.kind`` says.
    """
    oracle_cfg = config["oracle"]
    kind = "render_only" if render_only else oracle_cfg["kind"]
    if config["task"] == "classification":
        # checked before any kind is built, so no oracle is ever called
        index = max(oracle_cfg["yes_index"], oracle_cfg["no_index"])
        if index >= len(oracle_cfg["classes"]):
            raise ConfigError(f"class index {index} is outside the "
                              f"{len(oracle_cfg['classes'])} oracle.classes")

    if kind == "replay":
        records_path = oracle_cfg.get("records_path")
        if not records_path:
            raise ConfigError("replay oracle needs oracle.records_path")
        if not Path(records_path).exists():
            raise ConfigError(f"records file not found: {records_path}")
        return ReplayOracle.from_file(records_path, num_classes=len(oracle_cfg["classes"]))

    if config["task"] == "classification":
        classes = oracle_cfg["classes"]
        num_classes, markers, template_id = len(classes), {}, "audit_classification"
        answers = (oracle_cfg["no_index"], oracle_cfg["yes_index"])
        replies = {label: classes.index(label) for label in classes}  # a label's first index
    else:
        num_classes, template_id = None, "audit_generation_blackbox"
        markers = {"y1_text": signal_pair.y1_text, "y0_text": signal_pair.y0_text}
        answers = (signal_pair.y0_embedding, signal_pair.y1_embedding)
        replies = {signal_pair.y0_text: answers[0], signal_pair.y1_text: answers[1]}

    if kind == "canary_detector":
        return CanaryDetector(answers, num_classes, oracle_cfg["flip_probability"])
    if kind == "render_only":
        transport = None
    elif kind == "responder_file":
        responses = oracle_cfg.get("responses_path")
        if not responses:
            raise ConfigError("file responder needs oracle.responses_path")
        if not Path(responses).exists():
            raise ConfigError(f"responses file not found: {responses}")
        if config["audit"]["workers"] != 1:
            # the batch file serves responses positionally; parallel
            # collection would scramble the request/response alignment
            raise ConfigError("file responders require audit.workers = 1")
        transport = FileTransport(responses, oracle_cfg.get("requests_log_path"))
    elif kind == "responder_http":
        endpoint = oracle_cfg.get("endpoint")
        if not endpoint:
            raise ConfigError("http responder needs oracle.endpoint")
        token_env = oracle_cfg.get("auth_token_env")
        token = os.environ.get(token_env) if token_env else None
        transport = HttpTransport(endpoint, oracle_cfg.get("auth_header"), token)
    else:
        raise ConfigError(f"unknown oracle kind {kind!r}")
    decode = oracle_cfg["decode"]
    return Responder(transport, oracle_cfg.get("template_id", template_id), replies,
                     config["context"]["canary_text"], num_classes, markers,
                     temperature=decode["temperature"], max_tokens=decode["max_tokens"])


def output_path(config: dict, key: str) -> Path:
    out = config["output"]
    directory = Path(out["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    return directory / out[key]
