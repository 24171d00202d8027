import pytest
import yaml

from dpicl_audit import config as config_module


@pytest.fixture(autouse=True)
def configs_load_alike(request):
    """After each test, every YAML config it wrote loads to the same document
    with the CLI's loader as with PyYAML's pure-Python SafeLoader."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp_path is None:
        return
    for path in sorted(tmp_path.rglob("*.yaml")):
        try:
            text = path.read_text("utf-8")
        except UnicodeDecodeError:
            continue  # not UTF-8: rejected before either loader runs
        try:
            expected = yaml.load(text, Loader=yaml.SafeLoader)
        except yaml.YAMLError:  # malformed on purpose: both loaders reject it
            with pytest.raises(yaml.YAMLError):
                yaml.load(text, Loader=config_module._YAML_LOADER)
            continue
        loaded = yaml.load(text, Loader=config_module._YAML_LOADER)
        # a NaN is equal to no NaN, but prints alike
        assert loaded == expected or repr(loaded) == repr(expected), path
