"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps monodiv
functions by patching them by name, as listed in `perfbench/spans.py`
(`PATCHES`).  A refactor that renames or drops one of those names breaks the
traced run; this test catches it without running the benchmark."""

import importlib

from conftest import perfbench_patches

import monodiv  # noqa: F401


def test_perfbench_patch_targets_resolve():
    patches = perfbench_patches()
    assert patches
    for module_name, attr_path, *_ in patches:
        target = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            assert hasattr(target, attr), f"{module_name}.{attr_path}"
            target = getattr(target, attr)
        assert callable(target), f"{module_name}.{attr_path}"
