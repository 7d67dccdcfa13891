"""One kernel path, one distance formula, and the reference swapped in
for parity runs.

:mod:`repro.kernels` exports :mod:`~repro.kernels.vector`'s kernels as
they are; the scalar reference runs a query only inside
:func:`repro.kernels.scalar.installed`, which rebinds the package's
names for one block.  The swap reaches a caller only if it reads
``kernels.<fn>`` at call time, so one test imports every ``repro``
module and fails on one that holds a kernel function (or the vector
module) itself: that binding would escape the swap, and the parity
runs would compare the vector kernels with themselves.

Every distance is ``sqrt(dx*dx + dy*dy)``, and the last test reads
every ``repro`` source file and fails on any use of a ``hypot``: its
bits differ from the formula's (and ``np.hypot``'s from
``math.hypot``'s), so one would bring back a second formula.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro import kernels
from repro.kernels import columnar, scalar, vector

KERNELS = [
    name for name in kernels.__all__ if inspect.isfunction(getattr(kernels, name))
]


def test_every_kernel_is_the_vector_function_itself():
    assert len(KERNELS) == 9
    for name in KERNELS:
        assert getattr(kernels, name) is getattr(vector, name), name


def test_the_package_exports_kernels_and_columns_only():
    """No dispatch control, and the swap stays out of ``__all__`` (a
    traced benchmark run wraps every function listed there)."""
    for name in set(kernels.__all__) - set(KERNELS):
        assert getattr(kernels, name) is getattr(columnar, name), name
    assert "installed" not in kernels.__all__


def test_the_swap_installs_every_reference_kernel():
    with scalar.installed():
        for name in KERNELS:
            assert getattr(kernels, name) is getattr(scalar, name), name


def test_the_swap_restores_the_kernels_after_a_normal_exit():
    with scalar.installed():
        pass
    for name in KERNELS:
        assert getattr(kernels, name) is getattr(vector, name), name


def test_the_swap_restores_the_kernels_after_an_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with scalar.installed():
            raise RuntimeError("boom")
    for name in KERNELS:
        assert getattr(kernels, name) is getattr(vector, name), name


def _bound_kernels(namespace: dict) -> list[str]:
    """Names in ``namespace`` bound to a kernel function or to the
    vector module."""
    held = {id(getattr(m, name)) for m in (vector, scalar) for name in KERNELS}
    return [
        name
        for name, value in namespace.items()
        if value is vector or id(value) in held
    ]


def test_no_module_outside_the_package_holds_a_kernel():
    probe = {"fn": vector.accumulate_reductions, "mod": vector, "pkg": kernels}
    assert _bound_kernels(probe) == ["fn", "mod"]  # the scan can see one
    escaped = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.kernels" or info.name.startswith("repro.kernels."):
            continue
        module = importlib.import_module(info.name)
        namespaces = [(info.name, vars(module))] + [
            (f"{info.name}.{name}", vars(cls))
            for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == info.name
        ]
        for where, namespace in namespaces:
            escaped += [f"{where}.{name}" for name in _bound_kernels(namespace)]
    assert escaped == []


def _hypot_uses(source: str) -> list[int]:
    """The lines of ``source`` that name a ``hypot`` in code: a call, a
    reference such as ``map(math.hypot, ...)``, or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "hypot"
            or isinstance(node, ast.Name)
            and node.id == "hypot"
            or isinstance(node, ast.alias)
            and node.name.rsplit(".", 1)[-1] == "hypot"
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_computes_a_distance_with_hypot():
    probe = "d = np.hypot(a, b)\nf = map(math.hypot, a, b)\nfrom math import hypot"
    assert _hypot_uses(probe) == [1, 2, 3]  # the scan can see each form
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root.parent)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in _hypot_uses(path.read_text(encoding="utf-8"))
    ]
    assert found == []
