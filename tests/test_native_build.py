"""``compile_library`` leaves no build directory behind, whatever happens.

Each cold compile works in a fresh ``repro-native-<tag>-XXXXXXXX``
directory; it must be gone after a successful build, a compile error and
a missing compiler alike.  The tests point the temp directory at a
private folder and use a unique tag, so other compiles cannot interfere.
"""

import os
import shutil
import tempfile
import uuid

import pytest

from repro.native import compile_library

GOOD_SOURCE = "int repro_build_probe(void) { return 42; }\n"


@pytest.fixture
def private_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.fixture
def tag():
    return f"buildprobe{uuid.uuid4().hex[:12]}"


def _build_dirs(root, tag):
    return sorted(
        p.name for p in root.iterdir()
        if p.is_dir() and p.name.startswith(f"repro-native-{tag}-")
    )


def test_success_removes_build_dir(private_tmp, tag):
    if shutil.which(os.environ.get("CC", "cc")) is None:
        pytest.skip("no C compiler on this host")
    lib = compile_library(GOOD_SOURCE, tag)
    assert lib is not None and lib.repro_build_probe() == 42
    assert _build_dirs(private_tmp, tag) == []
    # the cached artifact stays, and loads without a new build directory
    assert [p.suffix for p in private_tmp.iterdir()] == [".so"]
    assert compile_library(GOOD_SOURCE, tag) is not None
    assert _build_dirs(private_tmp, tag) == []


def test_compile_error_removes_build_dir(private_tmp, tag):
    if shutil.which(os.environ.get("CC", "cc")) is None:
        pytest.skip("no C compiler on this host")
    assert compile_library("this is not C;\n", tag) is None
    assert _build_dirs(private_tmp, tag) == []
    assert list(private_tmp.iterdir()) == []


def test_missing_compiler_removes_build_dir(private_tmp, tag, monkeypatch):
    monkeypatch.setenv("CC", str(private_tmp / "no-such-compiler"))
    assert compile_library(GOOD_SOURCE, tag) is None
    assert _build_dirs(private_tmp, tag) == []
    assert list(private_tmp.iterdir()) == []
