"""Run configuration: one YAML/JSON document, schema-validated before any work.

Flags can override individual keys (``--set audit.seed=7``); the merged
document is what gets validated and echoed into reports.
"""

from __future__ import annotations

import copy
import functools
import json
import os
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema
import yaml

from .audit import AuditConfig
from .mechanisms import Exemplar, MechanismConfig, NeighboringPair
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


DEFAULTS: dict = {
    "task": "classification",
    "threat_model": "white_box",
    "mechanism": {
        "sensitivity_mode": "paper_voting",
        "candidate_pool_size": 10,
        "classic_calibration": False,
    },
    "audit": {
        "n_sample": 400_000,
        "confidence": 0.95,
        "delta_target": 1e-5,
        "seed": 0,
        "workers": 1,
    },
    "oracle": {
        "kind": "canary_detector",
        "flip_probability": 0.0,
        "classes": ["yes", "no"],
        "yes_index": 0,
        "no_index": 1,
        "retry_budget": 0,
        "decode": {"temperature": 0.0, "max_tokens": 16},
    },
    "context": {
        "num_exemplars": 8,
        "canary_index": 0,
        "canary_text": "the canary exemplar under audit",
        "pad_to_partitions": False,
    },
    "output": {
        "directory": "out",
        "records": "records.jsonl",
        "report_json": "report.json",
        "report_csv": "reports.csv",
        "sweep_csv": "sweep.csv",
    },
}


def load_schema() -> dict:
    text = resources.files("dpicl_audit").joinpath("data/run_config.schema.json").read_text("utf-8")
    return json.loads(text)


@functools.cache
def _schema_validator() -> jsonschema.protocols.Validator:
    """The validator of the packaged schema, built once per process.

    The schema is checked against its metaschema here, once, rather than on
    every load as ``jsonschema.validate`` does; a broken schema still raises.
    """
    schema = load_schema()
    validator_class = jsonschema.validators.validator_for(schema)
    validator_class.check_schema(schema)
    return validator_class(schema)


def _deep_merge(base: dict, override: dict) -> dict:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


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


def load_run_config(path: str | Path, overrides: Optional[list[str]] = None) -> dict:
    """Read, merge with defaults, apply overrides, validate. Raises ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        document = yaml.load(path.read_text("utf-8"), Loader=_YAML_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid YAML/JSON: {exc}") from exc
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ConfigError("config document must be a mapping")
    # a copy: an override of a section the document leaves out must not
    # write into DEFAULTS, which every later load in the process reads
    merged = _deep_merge(copy.deepcopy(DEFAULTS), document)
    for assignment in overrides or []:
        apply_override(merged, assignment)
    error = jsonschema.exceptions.best_match(_schema_validator().iter_errors(merged))
    if error is not None:
        raise ConfigError(f"config violates the schema at {'/'.join(map(str, error.path))}: {error.message}") from error
    return merged


def build_mechanism_config(config: dict) -> MechanismConfig:
    mech = config["mechanism"]
    return MechanismConfig(
        eps_theory=float(mech["eps_theory"]),
        delta=float(mech["delta"]),
        num_partitions=int(mech["num_partitions"]),
        sensitivity_mode=mech["sensitivity_mode"],
        candidate_pool_size=int(mech["candidate_pool_size"]),
        classic_calibration=bool(mech["classic_calibration"]),
    )


def build_audit_config(config: dict) -> AuditConfig:
    audit = config["audit"]
    oracle = config["oracle"]
    return AuditConfig(
        mechanism=build_mechanism_config(config),
        task=config["task"],
        threat_model=config["threat_model"],
        n_llm=int(audit["n_llm"]),
        n_sample=int(audit["n_sample"]),
        confidence=float(audit["confidence"]),
        delta_target=float(audit["delta_target"]),
        seed=int(audit["seed"]),
        yes_index=int(oracle["yes_index"]),
        no_index=int(oracle["no_index"]),
    )


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
    n = int(ctx["num_exemplars"])
    return [Exemplar(text_in=f"reference exemplar input {i}", text_out=f"reference output {i}")
            for i in range(n)]


def build_neighboring_pair(config: dict) -> NeighboringPair:
    """The canary-in/canary-out contexts; raises ValueError when the canary
    index is out of range or the contexts do not split into the configured
    partitions."""
    ctx = config["context"]
    canary = Exemplar(text_in=ctx["canary_text"], text_out="canary output")
    pair = NeighboringPair(load_context_exemplars(config), canary, int(ctx["canary_index"]),
                           pad=ctx["pad_to_partitions"])
    pair.partitions(int(config["mechanism"]["num_partitions"]))
    return pair


def build_signal_pair(config: dict) -> Optional[SignalPair]:
    section = config.get("signal_pair")
    if section is None:
        if config["task"] == "generation":
            raise ConfigError("generation audits need a signal_pair section")
        return None
    distance = float(section["distance"])
    dimension = int(section.get("dimension", 16))
    if section.get("from_catalog", True):
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
        index = max(int(oracle_cfg["yes_index"]), int(oracle_cfg["no_index"]))
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
        answers = (int(oracle_cfg["no_index"]), int(oracle_cfg["yes_index"]))
        replies = {label: classes.index(label) for label in classes}  # a label's first index
    else:
        num_classes, template_id = None, "audit_generation_blackbox"
        markers = {"y1_text": signal_pair.y1_text, "y0_text": signal_pair.y0_text}
        answers = (signal_pair.y0_embedding, signal_pair.y1_embedding)
        replies = {signal_pair.y0_text: answers[0], signal_pair.y1_text: answers[1]}

    if kind == "canary_detector":
        return CanaryDetector(answers, num_classes, float(oracle_cfg["flip_probability"]))
    if kind == "render_only":
        transport = None
    elif kind == "responder_file":
        responses = oracle_cfg.get("responses_path")
        if not responses:
            raise ConfigError("file responder needs oracle.responses_path")
        if not Path(responses).exists():
            raise ConfigError(f"responses file not found: {responses}")
        if int(config["audit"]["workers"]) != 1:
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
                     temperature=float(decode["temperature"]),
                     max_tokens=int(decode["max_tokens"]))


def output_path(config: dict, key: str) -> Path:
    out = config["output"]
    directory = Path(out["directory"])
    directory.mkdir(parents=True, exist_ok=True)
    return directory / out[key]
