import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml

from dpicl_audit import cli, gaussian_model
from dpicl_audit import config as config_module
from dpicl_audit.audit import AuditConfig, run_audit
from dpicl_audit.cli import main
from dpicl_audit.mechanisms import MechanismConfig
from dpicl_audit.oracles import SignalPair, companion_path

from reference import read_records, record_lines, scale_canary_partition


def write_config(tmp_path, name="run.yaml", **overrides):
    config = {
        "task": "classification",
        "threat_model": "white_box",
        "mechanism": {"eps_theory": 2.0, "delta": 1e-5, "num_partitions": 4},
        "audit": {"n_llm": 20, "n_sample": 2000, "seed": 11},
        "context": {"num_exemplars": 8},
        "output": {"directory": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(yaml.safe_dump(config))
    return path


# the keys a collect or audit config must write
REQUIRED_ONLY = {"mechanism": {"eps_theory": 2, "delta": 1e-5, "num_partitions": 4},
                 "audit": {"n_llm": 20}}

# what REQUIRED_ONLY loads to: every default, each an int, float, bool, str
# or list as the run objects take it
LOADED_DEFAULTS = {
    "task": "classification",
    "threat_model": "white_box",
    "mechanism": {"sensitivity_mode": "paper_voting", "candidate_pool_size": 10,
                  "classic_calibration": False, "delta": 1e-05, "eps_theory": 2.0,
                  "num_partitions": 4},
    "audit": {"n_sample": 400000, "confidence": 0.95, "delta_target": 1e-05, "seed": 0,
              "workers": 1, "n_llm": 20},
    "oracle": {"kind": "canary_detector", "flip_probability": 0.0, "classes": ["yes", "no"],
               "yes_index": 0, "no_index": 1, "retry_budget": 0,
               "decode": {"temperature": 0.0, "max_tokens": 16}},
    "context": {"num_exemplars": 8, "canary_index": 0,
                "canary_text": "the canary exemplar under audit", "pad_to_partitions": False},
    "output": {"directory": "out", "records": "records.jsonl", "report_json": "report.json",
               "report_csv": "reports.csv", "sweep_csv": "sweep.csv"},
}


def typed(node):
    """``node`` with each scalar paired with its type, so that 2 and 2.0 differ."""
    if isinstance(node, dict):
        return {name: typed(value) for name, value in node.items()}
    if isinstance(node, list):
        return [typed(item) for item in node]
    return type(node), node


def load_defaults(tmp_path, command="audit") -> dict:
    path = tmp_path / "required.yaml"
    path.write_text(yaml.safe_dump(REQUIRED_ONLY))
    return config_module.load_run_config(path, command=command)


def config_writing_every_section(tmp_path) -> dict:
    """A valid config for every command that writes each section of
    ``config.KEYS`` with its required keys."""
    path = write_config(tmp_path, oracle={"kind": "canary_detector", "decode": {}},
                        signal_pair={"distance": 0.7476},
                        simulate={"T_values": [2], "b": 1.0, "sigma": 2.0})
    return yaml.safe_load(path.read_text())


# a required key left out of the document, or of a section an override
# replaces whole (which keeps the section's defaults, but a required key
# has none)
MISSING, REPLACED = "missing", "replaced"

# a value of another type than each key's, bools for numbers included
WRONG_TYPES = {"integer": [1.5, True, "1"], "number": [True, "1"], "string": [1],
               "boolean": [1, "true"], "array": ["yes"], None: ["nope", 1]}
VALID_ITEMS = {"string": "yes", "integer": 2}

# values that are numbers to YAML but not finite floats, by name
NON_FINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "int-past-float": 10**400}


def _leaves(keys=config_module.KEYS, path=()):
    for name, key in keys.items():
        if isinstance(key, dict):
            yield from _leaves(key, path + (name,))
        else:
            yield path + (name,), key


def _sections(keys=config_module.KEYS, path=()):
    yield path
    for name, key in keys.items():
        if isinstance(key, dict):
            yield from _sections(key, path + (name,))


def _bounds(key, outside):
    """A value on each bound of ``key``, or just outside each: an inclusive
    bound is inside, an exclusive one outside, and a step is 1 for integers
    and one float otherwise."""
    for bound, inclusive, out in [(key.ge, True, -1), (key.gt, False, -1),
                                  (key.le, True, 1), (key.lt, False, 1)]:
        if bound is None:
            continue
        if inclusive != outside:
            yield bound
        else:
            way = out if outside else -out
            yield bound + way if key.type == "integer" else math.nextafter(bound, way * math.inf)


def _key_values(outside):
    """(path, value, path checked) on or just outside each bound of each
    key in config.KEYS; a list's items are checked in a list of one."""
    for path, key in _leaves():
        where = "/".join(path)
        for value in _bounds(key, outside):
            yield path, value, where
        if key.items is not None:
            for value in _bounds(key.items, outside):
                yield path, [value] * max(key.min_items, 1), where + "/0"


def rejected_values():
    """Each (command, path, value, path reported) must exit 2: a wrong type,
    each bound just outside, too few items, an unknown key at each level,
    and each required key missing, for every command."""
    for path, key in _leaves():
        where = "/".join(path)
        for value in WRONG_TYPES[key.type]:
            yield "audit", path, value, where
        if key.items is not None:
            for value in WRONG_TYPES[key.items.type]:
                yield "audit", path, [value] * max(key.min_items, 1), where + "/0"
            yield "audit", path, [VALID_ITEMS[key.items.type]] * (key.min_items - 1), where
    yield from (("audit", *case) for case in _key_values(outside=True))
    for path in _sections():
        yield "audit", path + ("bogus",), 1, "/".join(path + ("bogus",))
        if path:
            yield "audit", path, 5, "/".join(path)
    for command in config_module.COMMAND_SECTIONS:
        for path, key in _leaves():
            if key.required:
                yield command, path, REPLACED, "/".join(path)
                if key.default is None:
                    yield command, path, MISSING, "/".join(path)


def mutated_config(tmp_path, path, value) -> list[str]:
    """The arguments that load the config writing every section with the
    key at ``path`` set to ``value``, or left out (MISSING, REPLACED)."""
    doc = config_writing_every_section(tmp_path)
    *sections, key = path
    node = doc
    for section in sections:
        node = node[section]
    overrides = []
    if value is REPLACED:
        rest = {name: item for name, item in node.items() if name != key}
        overrides = ["--set", f"{'.'.join(sections)}={yaml.safe_dump(rest, default_flow_style=True)}"]
    elif value is MISSING:
        del node[key]
    else:
        node[key] = value
    config_path = tmp_path / "mutated.yaml"
    config_path.write_text(yaml.safe_dump(doc))
    return ["--config", str(config_path), *overrides]


class TestConvert:
    def test_mu_zero(self, capsys):
        assert main(["convert", "--mu", "0", "--delta", "1e-5"]) == 0
        assert "eps=0" in capsys.readouterr().out

    def test_chance_level_counts(self, capsys):
        assert main(["convert", "--tp", "100", "--fp", "100", "--fn", "100", "--tn", "100"]) == 0
        out = capsys.readouterr().out
        assert "eps_emp_gdp=0" in out
        assert "mu_lower=0" in out

    def test_counts_report_intermediates(self, capsys):
        assert main(["convert", "--tp", "900", "--fp", "100", "--fn", "100", "--tn", "900"]) == 0
        out = capsys.readouterr().out
        assert "alpha_bar=" in out and "beta_bar=" in out and "eps_emp_point=" in out

    @pytest.mark.parametrize("tp, fp, point", [
        ("0", "5", "-inf"), ("0", "0", "-inf"), ("5", "0", "inf"), ("90", "10", "1.60416086"),
    ], ids=["no-true-positives", "no-positives", "no-false-positives", "both"])
    def test_point_estimate(self, capsys, tp, fp, point):
        # the audit's rule: -inf without true positives, +inf when only FPR is 0
        assert main(["convert", "--tp", tp, "--fp", fp, "--fn", "100", "--tn", "95"]) == 0
        assert f"\neps_emp_point={point}\n" in capsys.readouterr().out

    def test_eps_round_trip(self, capsys):
        assert main(["convert", "--eps", "3", "--delta", "1e-5"]) == 0
        out = capsys.readouterr().out
        round_trip = float(out.split("round_trip_eps=")[1].splitlines()[0])
        assert abs(round_trip - 3.0) <= 1e-6

    def test_eps_beyond_eps_bracket(self, capsys):
        # the inverse is not capped at EPS_BRACKET_MAX = 200
        assert main(["convert", "--eps", "250", "--delta", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "mu=18.5383603" in out
        assert "delta_at_eps=1e-05" in out
        # the forward conversion stops at the bracket and says so
        assert "round_trip_eps=unbounded (above EPS_BRACKET_MAX=200)" in out
        assert "inf" not in out

    def test_eps_zero_goes_through_the_inverse(self, capsys):
        # every mu up to this one converts to eps=0 at delta=1e-5
        assert main(["convert", "--eps", "0", "--delta", "1e-5"]) == 0
        out = capsys.readouterr().out
        assert "mu=2.50662827e-05" in out
        assert "round_trip_eps=0\n" in out
        assert "delta_at_eps=1e-05" in out

    def test_two_modes_rejected(self, capsys):
        assert main(["convert", "--mu", "1", "--eps", "2"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--gamma", "1.5", "--tp", "1", "--fp", "1", "--fn", "1", "--tn", "1"],
         "--gamma must lie in (0, 1), got 1.5"),
        (["--mu", "-1"], "mu must be non-negative, got -1.0"),
        (["--mu", "1", "--delta", "0"], "delta_target must lie in (0, 1), got 0.0"),
        (["--tp", "0", "--fp", "3", "--fn", "0", "--tn", "2"],
         "both hypotheses must be sampled at least once"),
        (["--mu", "nan"], "mu must be finite, got nan"),
        (["--mu", "inf"], "mu must be finite, got inf"),
    ], ids=["gamma", "negative-mu", "zero-delta", "empty-arm", "nan-mu", "inf-mu"])
    def test_input_mistakes_exit_2(self, capsys, argv, message):
        assert main(["convert", *argv]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["audit", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_schema_violation_stops_before_work(self, tmp_path, capsys):
        path = write_config(tmp_path, audit={"n_llm": 20, "n_sample": 0})
        assert main(["audit", "--config", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path)
        doc = yaml.safe_load(path.read_text())
        doc["bogus_section"] = {"x": 1}
        path.write_text(yaml.safe_dump(doc))
        assert main(["audit", "--config", str(path)]) == 2

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loads_the_config(self):
        assert config_module._YAML_LOADER is yaml.CSafeLoader

    def test_loaders_agree_on_the_packaged_defaults(self, tmp_path):
        # every config the tests write is checked alike, after each test (conftest.py)
        defaults = load_defaults(tmp_path)
        text = yaml.safe_dump(defaults)
        loaded = yaml.load(text, Loader=config_module._YAML_LOADER)
        assert loaded == yaml.load(text, Loader=yaml.SafeLoader) == defaults

    @pytest.mark.parametrize("command", ["collect", "audit"])
    def test_required_keys_load_to_the_defaults(self, tmp_path, command):
        assert typed(load_defaults(tmp_path, command)) == typed(LOADED_DEFAULTS)

    @pytest.mark.parametrize("text", [b"audit: [1, 2", b"{audit: 1", b"audit:\n\tseed: 1",
                                      b"audit: seed: 1", b"audit: \x07", b"audit: \xff"])
    def test_malformed_yaml_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        assert main(["audit", "--config", str(path)]) == 2
        assert "config error: config file is not valid YAML/JSON" in capsys.readouterr().err

    # "\udcff" is how Python passes on an undecodable command-line byte
    @pytest.mark.parametrize("value", ["[1", "{a", "\x07", "\udcff"])
    def test_malformed_override_exits_2(self, tmp_path, capsys, value):
        path = write_config(tmp_path)
        assert main(["audit", "--config", str(path), "--set", f"audit.seed={value}"]) == 2
        assert "config error: cannot parse override value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_schema_violation_message(self, tmp_path):
        path = write_config(tmp_path, audit={"n_llm": 20, "confidence": 2})
        with pytest.raises(config_module.ConfigError) as info:
            config_module.load_run_config(path)
        assert str(info.value) == ("config violates the schema at audit/confidence: "
                                   "2 is greater than or equal to the maximum of 1")

    @pytest.mark.parametrize("command, path, value, where", [
        pytest.param(*case, id=f"{case[0]}-{case[3]}-{case[2]!r}") for case in rejected_values()])
    def test_rejected_value_exits_2(self, tmp_path, capsys, command, path, value, where):
        assert main([command, *mutated_config(tmp_path, path, value)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config violates the schema at {where}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=f"{where}-{value!r}")
        for path, value, where in _key_values(outside=False)])
    def test_value_on_its_bound_is_accepted(self, tmp_path, path, value):
        _, config_path = mutated_config(tmp_path, path, value)
        for command in config_module.COMMAND_SECTIONS:
            config_module.load_run_config(config_path, command=command)

    @pytest.mark.parametrize("path, value", [
        pytest.param(path, value, id=f"{'/'.join(path)}-{name}") for path, key in _leaves()
        if key.type == "number" for name, value in NON_FINITE.items()])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, path, value):
        assert main(["audit", *mutated_config(tmp_path, path, value)]) == 2
        assert capsys.readouterr().err == (f"config error: config violates the schema at "
                                           f"{'/'.join(path)}: {value!r} is not a finite number\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threat", ["black_box", "white_box"])
    @pytest.mark.parametrize("text", [".nan", ".inf", "-.inf", "1.0e+400", "1" + "0" * 400])
    def test_non_finite_override_exits_2(self, tmp_path, capsys, threat, text):
        # NaN used to report eps 0 in invalid JSON, and an infinite eps_theory
        # a zero sigma
        path = write_config(tmp_path, threat_model=threat)
        assert main(["audit", "--config", str(path), "--set", f"mechanism.eps_theory={text}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config violates the schema at mechanism/eps_theory: ")
        assert err.endswith(" is not a finite number\n")
        assert not (tmp_path / "out").exists()

    def test_integral_float_is_an_integer(self, tmp_path):
        path = write_config(tmp_path, audit={"n_llm": 20, "seed": 7.0})
        assert config_module.load_run_config(path)["audit"]["seed"] == 7.0

    def test_start_up_does_not_import_requests(self, tmp_path):
        # only the HTTP responder transport needs requests, and it imports it
        # when it posts
        path = write_config(tmp_path)
        script = ("import sys\n"
                  "from dpicl_audit import cli, config\n"
                  f"config.load_run_config({str(path)!r})\n"
                  "print('requests' in sys.modules, 'jsonschema' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert result.stdout.strip() == "False False"

    def test_audits_do_not_import_scipy_optimize(self, tmp_path):
        # importing scipy.optimize costs about 0.2 s, several times a small
        # audit; the eps conversion bisects instead, and only convert --eps
        # imports it
        path = write_config(tmp_path)
        script = ("import sys\n"
                  "from dpicl_audit import cli\n"
                  "for threat in ('white_box', 'black_box'):\n"
                  f"    assert cli.main(['audit', '--config', {str(path)!r},\n"
                  "                     '--set', 'threat_model=' + threat]) == 0\n"
                  "print('scipy.optimize' in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert result.stdout.strip().splitlines()[-1] == "False"

    def test_replay_from_a_companion_imports_nothing_new(self, tmp_path):
        # what a replay audit imports adds to set-up and the first audit
        assert main(["collect", "--config", str(write_config(tmp_path))]) == 0
        path = write_config(tmp_path, name="replay.yaml",
                            oracle={"kind": "replay",
                                    "records_path": str(tmp_path / "out" / "records.jsonl")},
                            output={"directory": str(tmp_path / "replayed")})
        script = ("import sys\n"
                  "from dpicl_audit import cli, config\n"
                  "before = set(sys.modules)\n"
                  "def general_parse(*args):\n"
                  "    raise AssertionError('the records were parsed, not read from the companion')\n"
                  "from dpicl_audit import oracles\n"
                  "oracles._json_columns = general_parse\n"
                  f"assert cli.main(['audit', '--config', {str(path)!r}]) == 0\n"
                  "print(sorted(set(sys.modules) - before))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        assert result.stdout.strip().splitlines()[-1] == "[]"

    def test_start_up_heap_is_frozen_once(self, tmp_path):
        # importing the CLI freezes what start-up left for the collector, and
        # no command freezes more (frozen objects freed by refcount leave the
        # count), so each command's own garbage stays collectable
        path = write_config(tmp_path)
        script = ("import gc\n"
                  "from dpicl_audit import cli\n"
                  "frozen, tracked = gc.get_freeze_count(), len(gc.get_objects())\n"
                  f"assert cli.main(['audit', '--config', {str(path)!r}]) == 0\n"
                  "assert cli.main(['convert', '--mu', '1']) == 0\n"
                  "print(frozen, tracked, gc.get_freeze_count())\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
        frozen, tracked, after = map(int, result.stdout.splitlines()[-1].split())
        assert frozen > 10_000
        assert tracked < frozen / 100
        assert after <= frozen

    def test_calls_share_no_arguments(self, tmp_path, capsys):
        # the parser is built once per process; each call parses only its own argv
        path = write_config(tmp_path)

        def audited():
            report = json.loads((tmp_path / "out" / "report.json").read_text())
            return report["n_sample"], report["seed"]

        assert main(["audit", "--config", str(path), "--set", "audit.n_sample=400",
                     "--set", "audit.seed=3"]) == 0
        assert audited() == (400, 3)
        assert main(["audit", "--config", str(path)]) == 0
        assert audited() == (2000, 11)
        with pytest.raises(SystemExit) as exc:  # no subcommand: the last one is not reused
            main(["--config", str(path)])
        assert exc.value.code == 2
        args = cli._PARSER.parse_args(["collect", "--config", str(path)])
        assert (args.command, args.overrides) == ("collect", None)
        assert not hasattr(cli._PARSER.parse_args(["convert", "--mu", "1"]), "config")

    def test_override_leaves_the_defaults_alone(self, tmp_path):
        # the file has no oracle section, so the override makes one the
        # defaults fill; a loaded list is the config's own
        path = write_config(tmp_path)
        config = config_module.load_run_config(path, ["oracle.yes_index=1", "oracle.no_index=0"])
        assert config["oracle"]["yes_index"] == 1
        config["oracle"]["classes"].append("maybe")
        oracle = config_module.load_run_config(path)["oracle"]
        assert oracle == load_defaults(tmp_path)["oracle"] == LOADED_DEFAULTS["oracle"]

    @pytest.mark.parametrize("override", ["oracle={kind: canary_detector}",
                                          "audit={n_llm: 20, n_sample: 2000}",
                                          "context={canary_index: 1}"])
    def test_section_override_keeps_the_section_defaults(self, tmp_path, override, capsys):
        # a --set that gives a whole section runs as if the file wrote it
        path = write_config(tmp_path)
        section, value = override.split("=", 1)
        doc = yaml.safe_load(path.read_text())
        doc[section] = yaml.safe_load(value)
        written = tmp_path / "written.yaml"
        written.write_text(yaml.safe_dump(doc))
        assert (config_module.load_run_config(path, [override])
                == config_module.load_run_config(written))
        reports = []
        for argv in (["--config", str(path), "--set", override], ["--config", str(written)]):
            assert main(["audit", *argv]) == 0
            reports.append((tmp_path / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_set_override(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["audit", "--config", str(path), "--set", "audit.n_sample=400"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_sample"] == 400


def dataclass_defaults():
    """(path, field default) for each key of ``config.KEYS`` whose value a
    dataclass field with a default receives."""
    for cls, sections in [(MechanismConfig, ["mechanism"]), (AuditConfig, ["audit", "oracle"])]:
        for field in dataclasses.fields(cls):
            for section in sections:
                if (field.default is not dataclasses.MISSING
                        and field.name in config_module.KEYS[section]):
                    yield (section, field.name), field.default


class TestKeyTable:
    """The builders pass sections to the run objects as keyword arguments, so
    ``config.KEYS`` must name exactly the fields they take, with the same
    defaults."""

    def test_mechanism_keys_are_the_mechanism_fields(self):
        fields = {f.name for f in dataclasses.fields(MechanismConfig)}
        assert set(config_module.KEYS["mechanism"]) == fields

    def test_simulate_keys_are_the_sweep_parameters(self):
        parameters = inspect.signature(gaussian_model.sweep).parameters
        assert set(config_module.KEYS["simulate"]) == set(parameters)

    def test_audit_keys_are_the_remaining_audit_fields(self):
        passed = (set(config_module.KEYS["audit"]) - {"workers"}) | {"yes_index", "no_index"}
        fields = {f.name for f in dataclasses.fields(AuditConfig)}
        assert passed == fields - {"mechanism", "task", "threat_model"}

    @pytest.mark.parametrize("path, key", [
        pytest.param(path, key, id="/".join(path)) for path, key in _leaves()
        if key.default is not None])
    def test_default_passes_its_check(self, path, key):
        config_module._check_value(key.default, key, "/".join(path))

    def test_every_field_default_is_covered(self):
        assert [path for path, _ in dataclass_defaults()] == [
            ("mechanism", "sensitivity_mode"), ("mechanism", "candidate_pool_size"),
            ("mechanism", "classic_calibration"), ("audit", "n_sample"), ("audit", "confidence"),
            ("audit", "delta_target"), ("audit", "seed"), ("oracle", "yes_index"),
            ("oracle", "no_index")]

    @pytest.mark.parametrize("path, default", [
        pytest.param(path, default, id="/".join(path)) for path, default in dataclass_defaults()])
    def test_default_is_the_field_default(self, path, default):
        section, name = path
        assert typed(config_module.KEYS[section][name].default) == typed(default)


class TestConfigMistakes:
    """A config that asks for what the run objects reject is a config error
    (exit 2), raised before any output is written."""

    @pytest.mark.parametrize("overrides", [
        ["oracle.yes_index=5"],
        ["mechanism.num_partitions=16"],
        ["context.num_exemplars=3"],
        ["context.canary_index=8"],
        ["task=generation", "signal_pair={distance: 0.7476}"],
        ["mechanism.sensitivity_mode=esa_legacy"],
    ], ids=["yes-index-outside-classes", "more-partitions-than-exemplars",
            "fewer-exemplars-than-partitions", "canary-index-outside-context",
            "generation-with-voting-noise", "classification-with-esa-noise"])
    def test_exits_2(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path)
        argv = ["audit", "--config", str(path)]
        for override in overrides:
            argv += ["--set", override]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("template_id, message", [
        # a classification responder fills no signal texts
        ("audit_generation_blackbox", "template 'audit_generation_blackbox' keeps markers "
                                      "the responder does not fill: y0_text, y1_text"),
        ("audit_generation_whitebox", "template 'audit_generation_whitebox' keeps markers "
                                      "the responder does not fill: y0_text, y1_text"),
        ("nope", "unknown template id 'nope'"),
    ])
    def test_template_exits_2(self, tmp_path, capsys, template_id, message):
        responses = tmp_path / "responses.jsonl"
        responses.write_text('{"text": "yes"}\n' * 160)
        path = write_config(tmp_path, oracle={"kind": "responder_file",
                                              "responses_path": str(responses),
                                              "template_id": template_id})
        assert main(["audit", "--config", str(path)]) == 2
        assert f"config error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind", ["responder_file", "replay"])
    def test_class_index_outside_classes_calls_no_oracle(self, tmp_path, capsys, kind):
        # a file responder would log (and, over HTTP, send) every request
        # before its votes could be found too narrow
        responses, log = tmp_path / "responses.jsonl", tmp_path / "requests.log.jsonl"
        responses.write_text('{"text": "yes"}\n' * 24)
        records = tmp_path / "records.jsonl"
        records.write_text("")
        oracle = {"kind": kind, "responses_path": str(responses),
                  "requests_log_path": str(log), "records_path": str(records), "yes_index": 5}
        path = write_config(tmp_path, audit={"n_llm": 3, "n_sample": 100}, oracle=oracle)
        for command in ("collect", "audit"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == ("config error: class index 5 is outside "
                                               "the 2 oracle.classes\n")
            assert not log.exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_padding_admits_more_partitions_than_exemplars(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["audit", "--config", str(path), "--set", "context.num_exemplars=3",
                     "--set", "context.pad_to_partitions=true"]) == 0


class TestCollect:
    def test_row_counts(self, tmp_path, capsys):
        path = write_config(tmp_path, audit={"n_llm": 100, "n_sample": 1000})
        assert main(["collect", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "200 rows" in out
        records = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
        assert len(records) == 100 * 4 * 2  # trials x partitions x hypotheses

    def test_replay_round_trip(self, tmp_path):
        first = write_config(tmp_path, name="first.yaml", audit={"n_llm": 30, "n_sample": 1000},
                             oracle={"kind": "canary_detector", "flip_probability": 0.2})
        assert main(["collect", "--config", str(first)]) == 0
        recorded = tmp_path / "out" / "records.jsonl"

        second = write_config(tmp_path, name="second.yaml", audit={"n_llm": 30, "n_sample": 1000},
                              oracle={"kind": "replay", "records_path": str(recorded)},
                              output={"directory": str(tmp_path / "out2")})
        assert main(["collect", "--config", str(second)]) == 0
        assert recorded.read_bytes() == (tmp_path / "out2" / "records.jsonl").read_bytes()

    def test_failed_collect_leaves_no_companion(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["collect", "--config", str(path)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        assert companion_path(records).exists()
        responses = tmp_path / "responses.jsonl"
        responses.write_text('{"text": "yes"}\n')  # exhausted after one reply
        failing = write_config(tmp_path, name="failing.yaml",
                               oracle={"kind": "responder_file", "responses_path": str(responses)})
        assert main(["collect", "--config", str(failing)]) == 3
        assert not records.exists()
        assert not companion_path(records).exists()

    def test_file_responder_requires_single_worker(self, tmp_path):
        responses = tmp_path / "responses.jsonl"
        responses.write_text('{"text": "Yes"}\n')
        path = write_config(tmp_path, audit={"n_llm": 5, "n_sample": 100, "workers": 4},
                            oracle={"kind": "responder_file", "responses_path": str(responses)})
        assert main(["collect", "--config", str(path)]) == 2

    def test_emit_requests_only(self, tmp_path, capsys):
        path = write_config(tmp_path, audit={"n_llm": 5, "n_sample": 100},
                            oracle={"kind": "responder_file", "emit_requests_only": True})
        assert main(["collect", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "responder requests" in out
        requests_file = tmp_path / "out" / "records.requests.jsonl"
        lines = requests_file.read_text().splitlines()
        assert len(lines) == 5 * 4 * 2
        assert set(json.loads(lines[0])) == {"template_id", "rendered_prompt", "decode"}

    @pytest.mark.parametrize("task", ["classification", "generation"])
    def test_emitted_batch_is_the_request_log(self, tmp_path, capsys, task):
        # the batch holds exactly the requests a file-responder run of the
        # same config issues, generation's prompt and template included
        responses = tmp_path / "responses.jsonl"
        answer = {"text": "yes"} if task == "classification" else {"emb": [1.0] + [0.0] * 15}
        responses.write_text((json.dumps(answer) + "\n") * (3 * 4 * 2))
        log = tmp_path / "requests.log.jsonl"
        extra = {} if task == "classification" else {
            "mechanism": {"eps_theory": 8.0, "delta": 1e-5, "num_partitions": 4,
                          "sensitivity_mode": "esa_tight"},
            "signal_pair": {"distance": 0.7476, "dimension": 16}}
        oracle = {"kind": "responder_file", "responses_path": str(responses),
                  "requests_log_path": str(log)}
        path = write_config(tmp_path, task=task, audit={"n_llm": 3, "n_sample": 100},
                            oracle=oracle, **extra)
        assert main(["collect", "--config", str(path)]) == 0
        assert main(["collect", "--config", str(path),
                     "--set", "oracle.emit_requests_only=true"]) == 0
        emitted = (tmp_path / "out" / "records.requests.jsonl").read_text()
        assert emitted == log.read_text()
        template = "audit_classification" if task == "classification" else "audit_generation_blackbox"
        assert {json.loads(line)["template_id"] for line in emitted.splitlines()} == {template}


class TestAudit:
    def test_emitted_batch_is_the_audit_request_log(self, tmp_path, capsys):
        # a black-box generation audit draws its zero-shot pool first, so its
        # batch holds those requests ahead of the collection's
        log = tmp_path / "requests.log.jsonl"
        path = write_config(tmp_path, **GENERATION, threat_model="black_box",
                            audit={"n_llm": 3, "n_sample": 100})
        pool = ["--set", "mechanism.candidate_pool_size=10"]
        assert main(["audit", "--config", str(path), *pool,
                     "--set", "oracle.emit_requests_only=true"]) == 0
        assert "wrote 34 responder requests" in capsys.readouterr().out
        emitted = (tmp_path / "out" / "records.requests.jsonl").read_text()
        prompts = [json.loads(line)["rendered_prompt"] for line in emitted.splitlines()]
        assert not any("reference exemplar" in prompt for prompt in prompts[:10])
        assert all("reference exemplar" in prompt for prompt in prompts[10:])

        signal = SignalPair.from_catalog(0.7476)
        y1, y0 = signal.y1_text, signal.y0_text
        # the pool, then per trial the canary partition and three others, with and without
        texts = [y1, y0] * 5 + [y1, y0, y0, y0] * 3 + [y0] * 12
        responses = tmp_path / "responses.jsonl"
        responses.write_text("".join(json.dumps({"text": text}) + "\n" for text in texts))
        assert main(["audit", "--config", str(path), *pool,
                     "--set", "oracle.kind=responder_file",
                     "--set", f"oracle.responses_path={responses}",
                     "--set", f"oracle.requests_log_path={log}"]) == 0
        assert log.read_text() == emitted

    def test_library_audit_writes_the_cli_report(self, tmp_path):
        # run_audit draws the zero-shot pool itself; at seed 624 the canary
        # detector's ten zero-shot answers are all y0, so both certify eps 0
        mechanism = {**GENERATION["mechanism"], "candidate_pool_size": 10}
        path = write_config(tmp_path, **{**GENERATION, "mechanism": mechanism},
                            threat_model="black_box",
                            audit={"n_llm": 20, "n_sample": 2000, "seed": 624})
        assert main(["audit", "--config", str(path)]) == 0
        written = (tmp_path / "out" / "report.json").read_text()
        assert json.loads(written)["eps_emp_gdp"] == 0.0
        config = config_module.load_run_config(path)
        signal = config_module.build_signal_pair(config)
        report = run_audit(config_module.build_audit_config(config),
                           config_module.build_oracle(config, signal),
                           config_module.build_neighboring_pair(config),
                           config["context"]["canary_text"], signal_pair=signal)
        assert report.to_json() == written

    def test_emitted_batch_of_a_replay_config_holds_the_pool(self, tmp_path, capsys):
        # the batch is for a live responder, which draws the pool, whatever
        # oracle.kind the config names
        path = write_config(tmp_path, **GENERATION, threat_model="black_box",
                            audit={"n_llm": 3, "n_sample": 100},
                            oracle={"kind": "replay", "records_path": str(tmp_path / "none")})
        emit = ["--set", "oracle.emit_requests_only=true"]
        assert main(["audit", "--config", str(path), *emit]) == 0
        assert "wrote 34 responder requests" in capsys.readouterr().out
        assert main(["audit", "--config", str(path), *emit,
                     "--set", "mechanism.candidate_pool_size=2"]) == 0
        assert "wrote 24 responder requests" in capsys.readouterr().out

    def test_deterministic_reports(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["audit", "--config", str(path)]) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        assert main(["audit", "--config", str(path)]) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first

    def test_csv_accumulates(self, tmp_path):
        path = write_config(tmp_path)
        main(["audit", "--config", str(path)])
        main(["audit", "--config", str(path)])
        lines = (tmp_path / "out" / "reports.csv").read_text().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[:8] == ["task", "threat", "T", "eps_theory", "delta", "n_llm", "n_sample", "gamma"]
        assert header[-2:] == ["seed", "wall_ms"]

    def test_generation_audit_runs(self, tmp_path):
        path = write_config(
            tmp_path,
            task="generation",
            mechanism={"eps_theory": 8.0, "delta": 1e-5, "num_partitions": 4,
                       "sensitivity_mode": "esa_tight"},
            signal_pair={"distance": 0.7476, "dimension": 16},
        )
        assert main(["audit", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["task"] == "generation"
        assert report["tau"] is not None

    def test_generation_blackbox_zero_shot_pool(self, tmp_path):
        # a 10-candidate zero-shot pool only ever holds signal embeddings
        # under the idealized oracle, so the audit matches the pair pool
        def config_for(pool_size, directory):
            return write_config(
                tmp_path, name=f"pool{pool_size}.yaml",
                task="generation", threat_model="black_box",
                mechanism={"eps_theory": 8.0, "delta": 1e-5, "num_partitions": 4,
                           "sensitivity_mode": "esa_tight",
                           "candidate_pool_size": pool_size},
                signal_pair={"distance": 0.7476, "dimension": 16},
                output={"directory": str(tmp_path / directory)},
            )

        assert main(["audit", "--config", str(config_for(2, "out_pair"))]) == 0
        assert main(["audit", "--config", str(config_for(10, "out_pool"))]) == 0
        pair_report = json.loads((tmp_path / "out_pair" / "report.json").read_text())
        pool_report = json.loads((tmp_path / "out_pool" / "report.json").read_text())
        assert pool_report["counts"] == pair_report["counts"]

    def test_replay_audit_workflow(self, tmp_path):
        first = write_config(tmp_path, name="collect.yaml",
                             audit={"n_llm": 30, "n_sample": 1000},
                             oracle={"kind": "canary_detector", "flip_probability": 0.1})
        assert main(["collect", "--config", str(first)]) == 0
        recorded = tmp_path / "out" / "records.jsonl"
        second = write_config(tmp_path, name="audit.yaml",
                              audit={"n_llm": 30, "n_sample": 1000},
                              oracle={"kind": "replay", "records_path": str(recorded)},
                              output={"directory": str(tmp_path / "out2")})
        assert main(["audit", "--config", str(second)]) == 0
        report = json.loads((tmp_path / "out2" / "report.json").read_text())
        assert report["counts"]["tp"] + report["counts"]["fn"] == 1000

    def test_report_carries_config_echo(self, tmp_path):
        path = write_config(tmp_path)
        main(["audit", "--config", str(path)])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["mechanism"]["eps_theory"] == 2.0
        assert report["seed"] == 11
        assert report["confidence"] == 0.95


GENERATION = {
    "task": "generation",
    "mechanism": {"eps_theory": 8.0, "delta": 1e-5, "num_partitions": 4,
                  "sensitivity_mode": "esa_tight"},
    "signal_pair": {"distance": 0.7476, "dimension": 16},
}


class TestReplayMismatch:
    """A replayed stream that does not fit the config is an oracle failure
    (exit 3), raised before any trial is drawn."""

    def replay(self, tmp_path, capsys, overrides, **recorded):
        first = write_config(tmp_path, name="collect.yaml", **recorded)
        assert main(["collect", "--config", str(first)]) == 0
        second = write_config(tmp_path, name="replay.yaml", **recorded,
                              oracle={"kind": "replay",
                                      "records_path": str(tmp_path / "out" / "records.jsonl")},
                              output={"directory": str(tmp_path / "out2")})
        capsys.readouterr()
        argv = ["audit", "--config", str(second)]
        for override in overrides:
            argv += ["--set", override]
        code = main(argv)
        assert not (tmp_path / "out2" / "report.json").exists()
        return code, capsys.readouterr().err

    def test_generation_records_audited_as_classification(self, tmp_path, capsys):
        # a consistent classification config: its noise calibration is voting's
        code, err = self.replay(tmp_path, capsys, ["task=classification",
                                                   "mechanism.sensitivity_mode=paper_voting"],
                                **GENERATION)
        assert code == 3
        assert "oracle produced generation responses for a classification audit" in err

    @pytest.mark.parametrize("threat", ["white_box", "black_box"])
    def test_embedding_dimension_differs_from_the_signal_pair(self, tmp_path, capsys, threat):
        code, err = self.replay(tmp_path, capsys, ["signal_pair.dimension=8"],
                                threat_model=threat, **GENERATION)
        assert code == 3
        assert "oracle produced 16-d embeddings for a 8-d signal pair" in err

    @pytest.mark.parametrize("threat", ["white_box", "black_box"])
    def test_recorded_vote_outside_the_label_set(self, tmp_path, capsys, threat):
        # the replayed votes take the configured label set's width, so a
        # stream recorded over three classes does not fit two
        first = write_config(tmp_path, name="collect.yaml",
                             oracle={"classes": ["a", "b", "c"], "yes_index": 2})
        assert main(["collect", "--config", str(first)]) == 0
        second = write_config(tmp_path, name="replay.yaml", threat_model=threat,
                              oracle={"kind": "replay",
                                      "records_path": str(tmp_path / "out" / "records.jsonl")},
                              output={"directory": str(tmp_path / "out2")})
        capsys.readouterr()
        assert main(["audit", "--config", str(second)]) == 3
        assert not (tmp_path / "out2" / "report.json").exists()
        assert "vote 2 outside the 2-class label set" in capsys.readouterr().err

    def test_replay_keeps_the_configured_vote_width(self, tmp_path):
        # class c never receives a vote, and its noisy coordinate still
        # competes for the argmax: the replay must audit 3-wide votes too
        oracle = {"classes": ["a", "b", "c"]}
        settings = {"threat_model": "black_box",
                    "audit": {"n_llm": 20, "n_sample": 20_000, "seed": 11}}
        live = write_config(tmp_path, name="live.yaml", oracle=oracle, **settings)
        assert main(["collect", "--config", str(live)]) == 0
        assert main(["audit", "--config", str(live)]) == 0
        replay = write_config(tmp_path, name="replay.yaml",
                              oracle={**oracle, "kind": "replay",
                                      "records_path": str(tmp_path / "out" / "records.jsonl")},
                              output={"directory": str(tmp_path / "out2")}, **settings)
        assert main(["audit", "--config", str(replay)]) == 0
        assert ((tmp_path / "out2" / "report.json").read_bytes()
                == (tmp_path / "out" / "report.json").read_bytes())


class TestOverNormReplay:
    @pytest.mark.parametrize("threat", ["white_box", "black_box"])
    def test_scaled_canary_partition_audits_as_recorded(self, tmp_path, threat):
        # the mechanism clips each partition embedding to the unit ball, so a
        # canary partition that answered y1's embedding x50 releases as if it
        # had answered y1's embedding
        first = write_config(tmp_path, name="collect.yaml", threat_model=threat, **GENERATION)
        assert main(["collect", "--config", str(first)]) == 0
        recorded, scaled = tmp_path / "out" / "records.jsonl", tmp_path / "scaled.jsonl"
        scale_canary_partition(recorded, scaled, 50.0)
        reports = []
        for name, records in (("records", recorded), ("scaled", scaled)):
            path = write_config(tmp_path, name=f"{name}.yaml", threat_model=threat, **GENERATION,
                                oracle={"kind": "replay", "records_path": str(records)},
                                output={"directory": str(tmp_path / name)})
            assert main(["audit", "--config", str(path)]) == 0
            reports.append((tmp_path / name / "report.json").read_bytes())
        assert reports[1] == reports[0]


class TestMalformedRecords:
    """A records file that breaks the wire format is an oracle failure (exit
    3) that names the file and the line, raised before any trial is drawn."""

    @pytest.mark.parametrize("line, message", [
        ('{"ctx":"with","trial":0,"part":0', "Expecting ',' delimiter"),
        ('{"trial":0,"part":0,"vote":1}',
         "a record's fields are not ctx, trial, part and one of vote or emb"),
        ('{"ctx":"maybe","trial":0,"part":0,"vote":1}',
         "ctx must be 'with' or 'without', got 'maybe'"),
    ], ids=["truncated", "missing-ctx", "unknown-ctx"])
    def test_bad_line_is_named(self, tmp_path, capsys, line, message):
        code, err, records = self.replay_with(tmp_path, capsys, line)
        assert code == 3
        # 20 trials x 4 partitions x 2 contexts are recorded before it
        assert f"malformed record at {records}:161: {message}" in err

    # Lines close to collect's own layout, after 160 lines in it: each is
    # named as the general parse names it, word for word.
    @pytest.mark.parametrize("task, text, message", [
        ("classification", '{"ctx":"with","trial":01,"part":0,"vote":1}',
         "Expecting ',' delimiter: line 1 column 24 (char 23)"),
        ("classification", '{"ctx":"with","trial":12345678901234567890,"part":0,"vote":1}',
         "trial does not fit in 64 bits"),
        # 1 and an Arabic-Indic three: digits to Python, not to JSON
        ("classification", '{"ctx":"with","trial":1\u0663,"part":0,"vote":1}',
         "Expecting ',' delimiter: line 1 column 24 (char 23)"),
        ("classification", '{"ctx":"with","trial":0,"part":0,"vote":true}',
         "vote must be an integer"),
        ("classification", '{"ctx": "with", "trial": 0, "part": 0, "vote": 1.5}',
         "vote must be an integer"),
        ("classification", '{"trial":0,"ctx":"maybe","part":0,"vote":1}',
         "ctx must be 'with' or 'without', got 'maybe'"),
        # the value texts [1, 2] and 5,6 join to one array of three elements
        ("generation", "\n".join(f'{{"ctx":"with","trial":0,"part":{part},"emb":{value}}}'
                                 for part, value in enumerate(["[1", "2]", "5,6"])),
         "Expecting ',' delimiter: line 1 column 42 (char 41)"),
        ("generation", '{"ctx":"with","trial":0,"part":0,"emb":[1],[2]}',
         "Expecting property name enclosed in double quotes: line 1 column 44 (char 43)"),
        ("generation", '{"ctx":"with","trial":0,"part":0,"emb":[true]}',
         "emb must be a list of numbers, of one length in every record"),
        ("generation", '{"ctx":"with","trial":0,"part":9999999999999999999,"emb":[0.0]}',
         "part does not fit in 64 bits"),
    ], ids=["leading-zero-id", "20-digit-trial", "non-ascii-digit", "true-vote",
            "default-spacing", "reordered-keys", "join-trap", "two-lists", "true-coordinate",
            "19-digit-part"])
    def test_near_layout_line_is_named(self, tmp_path, capsys, task, text, message):
        config = GENERATION if task == "generation" else {}
        code, err, records = self.replay_with(tmp_path, capsys, text, **config)
        assert code == 3
        assert err == f"oracle failure: malformed record at {records}:161: {message}\n"

    @pytest.mark.parametrize("task, line, message", [
        ("generation", '{"ctx":"with","trial":0,"part":0,"emb":[1.0,0.0]}',
         "emb must be a list of numbers, of one length in every record"),
        ("generation", '{"ctx":"with","trial":0,"part":0,"vote":1}',
         "record stream mixes votes and embeddings"),
    ], ids=["ragged-embeddings", "vote-after-embeddings"])
    def test_stream_fault_names_the_file(self, tmp_path, capsys, task, line, message):
        config = GENERATION if task == "generation" else {}
        code, err, records = self.replay_with(tmp_path, capsys, line, **config)
        assert code == 3
        assert err == f"oracle failure: {message} ({records})\n"

    def test_votes_mixed_with_embeddings(self, tmp_path, capsys):
        code, err, records = self.replay_with(
            tmp_path, capsys, '{"ctx":"with","trial":0,"part":0,"emb":[1.0,0.0]}')
        assert code == 3
        assert f"record stream mixes votes and embeddings ({records})" in err

    def test_vote_outside_the_configured_classes(self, tmp_path, capsys):
        # the appended record is the last for its key, so it is the one replayed
        code, err, _ = self.replay_with(tmp_path, capsys, '{"ctx":"with","trial":0,"part":0,"vote":7}')
        assert code == 3
        assert "vote 7 outside the 2-class label set" in err

    def replay_with(self, tmp_path, capsys, line, **config):
        first = write_config(tmp_path, name="collect.yaml", **config)
        assert main(["collect", "--config", str(first)]) == 0
        records = tmp_path / "out" / "records.jsonl"
        with open(records, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        second = write_config(tmp_path, name="replay.yaml", **config,
                              oracle={"kind": "replay", "records_path": str(records)},
                              output={"directory": str(tmp_path / "out2")})
        capsys.readouterr()
        code = main(["audit", "--config", str(second)])
        assert not (tmp_path / "out2" / "report.json").exists()
        return code, capsys.readouterr().err, records


class TestSimulate:
    def test_sweep_csv(self, tmp_path, capsys):
        path = write_config(tmp_path, simulate={"T_values": [2, 4, 6], "k_rule": "all",
                                                "b": 1.0, "sigma": 2.0})
        assert main(["simulate", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("T,k,b,sigma")
        assert len(lines) == 1 + 2 + 4 + 6

    def test_missing_section(self, tmp_path):
        path = write_config(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("integral, integer, first_row", [
        ({"T_values": [4.0]}, {"T_values": [4]}, "4,1,1.0,2.0,"),
        ({"T_values": [4.0], "k_rule": "fixed", "k_fixed": 2.0},
         {"T_values": [4], "k_rule": "fixed", "k_fixed": 2}, "4,2,1.0,2.0,"),
    ], ids=["all", "fixed"])
    def test_integral_floats_sweep_as_integers(self, tmp_path, capsys, integral, integer,
                                               first_row):
        sweeps = []
        for name, section in [("integral", integral), ("integer", integer)]:
            path = write_config(tmp_path, f"{name}.yaml", output={"directory": str(tmp_path / name)},
                                simulate={"b": 1.0, "sigma": 2.0, **section})
            assert main(["simulate", "--config", str(path)]) == 0
            sweeps.append((tmp_path / name / "sweep.csv").read_text())
        assert sweeps[0] == sweeps[1]
        assert sweeps[0].splitlines()[1].startswith(first_row)

    def test_simulate_only_config(self, tmp_path, capsys):
        # no mechanism or audit section: simulate reads neither
        path = tmp_path / "simulate.yaml"
        path.write_text(yaml.safe_dump({"simulate": {"T_values": [4], "b": 1.0, "sigma": 2.0},
                                        "output": {"directory": str(tmp_path / "out")}}))
        assert main(["simulate", "--config", str(path)]) == 0
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 1 + 4
        capsys.readouterr()
        (tmp_path / "out" / "sweep.csv").unlink()
        assert main(["audit", "--config", str(path)]) == 2
        assert capsys.readouterr().err == ("config error: config violates the schema at "
                                           "mechanism/eps_theory: a required key is missing\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("section, message", [
        ({"k_rule": "fixed"}, "k_rule 'fixed' needs k_fixed"),
        ({"k_rule": "fixed", "k_fixed": 9}, "k must lie in [0, 4], got 9"),
        # the canary-out votes [k - b, T - k + b] would go negative
        ({"k_rule": "fixed", "k_fixed": 0}, "k must be at least b = 1.0, got 0"),
        ({"T_values": [1], "k_rule": "centered"}, "k must be at least b = 1.0, got 0"),
    ], ids=["no-k-fixed", "k-fixed-above-T", "k-fixed-below-b", "centered-k-below-b"])
    def test_input_mistakes_exit_2(self, tmp_path, capsys, section, message):
        path = write_config(tmp_path, simulate={"T_values": [4], "b": 1.0, "sigma": 2.0, **section})
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out" / "sweep.csv").exists()


class TestNonFiniteEmbeddings:
    """A non-finite embedding, recorded or replied, is an oracle failure
    (exit 3) that names the first (ctx, trial, part) holding one."""

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("threat", ["white_box", "black_box"])
    def test_from_a_records_file(self, tmp_path, capsys, threat, value):
        first = write_config(tmp_path, name="collect.yaml", **GENERATION)
        assert main(["collect", "--config", str(first)]) == 0
        records = read_records(tmp_path / "out" / "records.jsonl")
        for record in records:
            if record["ctx"] == "without" and record["part"] == 1:
                record["emb"][0] = value
        edited = tmp_path / "edited.jsonl"
        edited.write_text(record_lines(records))
        path = write_config(tmp_path, name="replay.yaml", threat_model=threat, **GENERATION,
                            oracle={"kind": "replay", "records_path": str(edited)},
                            output={"directory": str(tmp_path / "out2")})
        capsys.readouterr()
        assert main(["audit", "--config", str(path)]) == 3
        assert ("oracle failure: non-finite embedding at (without, trial=0, part=1)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out2" / "report.json").exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["NaN", "Infinity"])
    @pytest.mark.parametrize("threat", ["white_box", "black_box"])
    def test_from_a_responder_reply(self, tmp_path, capsys, threat, value):
        responses = tmp_path / "responses.jsonl"
        responses.write_text((json.dumps({"emb": [value] + [0.0] * 15}) + "\n") * 160)
        # a pair pool: no zero-shot calls come before the collection
        mechanism = {**GENERATION["mechanism"], "candidate_pool_size": 2}
        path = write_config(tmp_path, threat_model=threat, **{**GENERATION, "mechanism": mechanism},
                            oracle={"kind": "responder_file", "responses_path": str(responses)})
        assert main(["audit", "--config", str(path)]) == 3
        assert ("oracle failure: non-finite embedding at (with, trial=0, part=0)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "report.json").exists()


def test_ragged_responder_embeddings_are_an_oracle_failure(tmp_path, capsys):
    # 15- and 16-long replies in turn: the arm's embeddings cannot form one array
    responses = tmp_path / "responses.jsonl"
    replies = [json.dumps({"emb": [0.1] * (15 + index % 2)}) for index in range(40)]
    responses.write_text("\n".join(replies) + "\n")
    mechanism = {**GENERATION["mechanism"], "candidate_pool_size": 2}
    path = write_config(tmp_path, **{**GENERATION, "mechanism": mechanism},
                        audit={"n_llm": 5},
                        oracle={"kind": "responder_file", "responses_path": str(responses)})
    assert main(["audit", "--config", str(path)]) == 3
    assert ("oracle failure: embeddings of lengths [15, 16] in the 'with' arm"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "report.json").exists()


class TestMalformedOutsideFiles:
    """A context file, or a responder's replies, that the run cannot read
    fails with its kind's exit code and names the file."""

    @pytest.mark.parametrize("line", ['["an input", "an output"]', '{"output": "an output"}',
                                      '{"input": 3}', "an input -> an output"],
                             ids=["list", "no-input", "number-input", "not-json"])
    def test_context_line_is_named(self, tmp_path, capsys, line):
        context = tmp_path / "context.jsonl"
        context.write_text('{"input": "a"}\n\n' + line + '\n{"input": "b"}\n')
        path = write_config(tmp_path, context={"file": str(context)})
        assert main(["audit", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (f"config error: context line {context}:3 is not a "
                                           "JSON object with a string 'input'\n")

    def test_undecodable_context_file(self, tmp_path, capsys):
        context = tmp_path / "context.jsonl"
        context.write_bytes(b'{"input": "\xff"}\n')
        path = write_config(tmp_path, context={"file": str(context)})
        assert main(["audit", "--config", str(path)]) == 2
        assert f"config error: context file {context} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, code", [("config", 2), ("context", 2), ("records", 3),
                                            ("responses", 3)])
    def test_input_that_is_a_directory(self, tmp_path, capsys, kind, code):
        directory = tmp_path / "inputs"
        directory.mkdir()
        overrides = {"config": {}, "context": {"context": {"file": str(directory)}},
                     "records": {"oracle": {"kind": "replay", "records_path": str(directory)}},
                     "responses": {"oracle": {"kind": "responder_file",
                                              "responses_path": str(directory)}}}[kind]
        path = directory if kind == "config" else write_config(tmp_path, **overrides)
        assert main(["audit", "--config", str(path)]) == code
        label = "config error" if code == 2 else "oracle failure"
        assert capsys.readouterr().err == (f"{label}: {kind} file {directory} cannot be read: "
                                           "Is a directory\n")

    @pytest.mark.parametrize("space", ["\u00a0", "\u2028", "\u001c"],
                             ids=["no-break-space", "line-separator", "file-separator"])
    @pytest.mark.parametrize("kind, line, message", [
        ("records", '{"ctx":"with","trial":0,"part":0,"vote":0}',
         "oracle failure: malformed record at {}:1: Expecting value: line 1 column 1 (char 0)"),
        ("responses", '{"text": "yes"}',
         "oracle failure: malformed response at {}:1: Expecting value: line 1 column 1 (char 0)"),
        ("context", '{"input": "a"}',
         "config error: context line {}:1 is not a JSON object with a string 'input'"),
    ], ids=["records", "responses", "context"])
    def test_line_wrapped_in_other_whitespace_is_named(self, tmp_path, capsys, space, kind, line,
                                                       message):
        # JSON allows only space, tab, CR and LF around a value
        source = tmp_path / f"{kind}.jsonl"
        source.write_text(f"{space}{line}{space}\n{line}\n", encoding="utf-8")
        overrides = {"records": {"oracle": {"kind": "replay", "records_path": str(source)}},
                     "responses": {"oracle": {"kind": "responder_file",
                                              "responses_path": str(source)}},
                     "context": {"context": {"file": str(source)}}}[kind]
        code = 2 if kind == "context" else 3
        assert main(["audit", "--config", str(write_config(tmp_path, **overrides))]) == code
        assert capsys.readouterr().err == message.format(source) + "\n"

    def test_input_that_may_not_be_read(self, tmp_path, capsys):
        denied = PermissionError(13, "Permission denied")
        path = write_config(tmp_path, context={"file": str(tmp_path / "context.jsonl")})
        (tmp_path / "context.jsonl").write_text('{"input": "a"}\n')
        with mock.patch.object(Path, "read_text", side_effect=denied):
            assert main(["audit", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (f"config error: config file {path} cannot be read: "
                                           "Permission denied\n")
        with mock.patch("dpicl_audit.oracles.open", side_effect=denied, create=True):
            assert main(["audit", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (f"config error: context file {tmp_path / 'context.jsonl'} "
                                           "cannot be read: Permission denied\n")

    def test_undecodable_responses_file(self, tmp_path, capsys):
        responses = tmp_path / "responses.jsonl"
        responses.write_bytes(b'{"text": "\xff"}\n')
        path = write_config(tmp_path, oracle={"kind": "responder_file",
                                              "responses_path": str(responses)})
        assert main(["audit", "--config", str(path)]) == 3
        assert (f"oracle failure: responses file {responses} is not UTF-8 text"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("reply", ['["yes"]', '"yes"', "3"], ids=["list", "string", "number"])
    def test_reply_that_is_not_an_object(self, tmp_path, capsys, reply):
        # retried within the budget, then an oracle failure
        responses = tmp_path / "responses.jsonl"
        responses.write_text(reply + "\n" + '{"text": "yes"}\n' * (5 * 4 * 2))
        oracle = {"kind": "responder_file", "responses_path": str(responses)}
        path = write_config(tmp_path, audit={"n_llm": 5, "n_sample": 100}, oracle=oracle)
        assert main(["collect", "--config", str(path), "--set", "oracle.retry_budget=1"]) == 0
        assert "1 retried failures" in capsys.readouterr().out
        assert main(["collect", "--config", str(path)]) == 3
        assert (f"oracle failure: reply {json.loads(reply)!r} is not a JSON object\n"
                == capsys.readouterr().err)
