import inspect
import re
from pathlib import Path

import numpy as np

import relucert as rc

import oracles

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # the python block under "## Library", run on a certified tetrahedron
    # layer, so that a change to the documented API fails here
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", library, re.S)
    assert block is not None, "README's Library section has no python block"
    weights = rc.tetrahedron()
    frame, _, _ = rc.normalize(weights)
    bias = rc.pbe_ball(frame, rc.build_polytope(frame), 2.0).alpha_scaled - 0.1
    rng = np.random.default_rng(88)
    X = oracles.sample_ball(rng, 3, 50, radius=2.0)
    x = X[0]
    scope = {"weights": weights, "bias": bias, "x": x, "X": X}
    exec(compile(block.group(1), str(README), "exec"), scope)
    assert scope["cert"].injective
    assert np.max(np.abs(scope["x_hat"] - x)) <= 1e-8
    assert not scope["failed"].any()
    assert np.max(np.abs(scope["X_hat"] - X)) <= 1e-8


def test_readme_public_api_is_all():
    # the module bullets under "### Public API" name exactly `relucert.__all__`
    section = README.read_text(encoding="utf-8").split("\n### Public API\n", 1)[1]
    bullets = section.split("\n\n- ", 1)[1].split("\n\n", 1)[0].split("\n- ")
    names = [name for bullet in bullets
             for name in re.findall(r"`(\w+)", bullet.split(": ", 1)[1])]
    assert sorted(names) == sorted(rc.__all__)
    for name in rc.__all__:
        getattr(rc, name)


def test_public_signatures_take_only_the_solver_tolerance():
    # every other threshold is a module constant, recorded in the report's
    # "tolerances" block: a tolerance option on a public callable would let
    # a verdict rest on a value the report does not state
    solver = {("pbe_ball", "tol"), ("pbe_positive", "tol"),
              ("min_linear_capped_cones", "tol"), ("BiasEstimate", "tol")}
    found = set()
    for name in rc.__all__:
        obj = getattr(rc, name)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        found |= {(name, p) for p in inspect.signature(obj).parameters if "tol" in p}
    assert found == solver
