"""pyproject.toml names only things that exist: every console-script target
imports, and every package-data glob matches a file."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())
SETUPTOOLS = PYPROJECT.get("tool", {}).get("setuptools", {})
SRC = ROOT / SETUPTOOLS.get("packages", {}).get("find", {}).get("where", ["."])[0]


def test_console_scripts_import():
    for name, target in PYPROJECT["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in filter(None, attr.split(".")):
            obj = getattr(obj, part)
        assert callable(obj), "script %r: %s is not callable" % (name, target)


def test_package_data_globs_match_files():
    for package, globs in SETUPTOOLS.get("package-data", {}).items():
        pkg_dir = SRC / package.replace(".", "/")
        assert pkg_dir.is_dir(), "package %r not under %s" % (package, SRC)
        for pattern in globs:
            assert any(pkg_dir.glob(pattern)), "%s/%s matches no file" % (package, pattern)
