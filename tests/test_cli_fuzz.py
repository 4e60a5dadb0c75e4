"""Property test of the command line: whatever the spec, facet file or flag
combination, `main` ends in a documented exit code without a traceback, and
a successful run prints exactly one JSON document.

Sizes stay small: every drawn complex has at most four vertices, so no
matching complex is built above the 3-simplex.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import morsematch
from morsematch.cli import main

MAX_VERTICES = 4

MALFORMED_SPECS = [
    "", ":", "simplex", "simplex:", "simplex:-1", "simplex:x", "simplex:1.5",
    "simplex:2:1", "boundary:0", "boundary:-2", "skeleton:simplex:2",
    "skeleton:simplex:2:-1", "skeleton::1", "skeleton:simplex:2:k", "cone:",
    "cone:cone:", "file:", "file:no/such/file.json", "torus:2",
    " simplex : 2 ",
]


@st.composite
def facet_file(draw, directory, max_vertices):
    """Path of a facet document, valid or broken in one of several ways."""
    v = draw(st.integers(0, max_vertices))
    facets = []
    if v:
        facets = draw(st.lists(st.sets(st.integers(0, v - 1), min_size=1)
                               .map(sorted), max_size=4))
    doc = {"vertices": v, "facets": facets}
    fault = draw(st.sampled_from(
        [None] * 5 + ["facet", "vertices", "keys", "truncated", "text"]))
    if fault == "facet":
        doc["facets"].append(draw(st.sampled_from(
            [[], [1, 0], [0, 0], [-1], [v], ["0"], [0.5], 0, None, [True]])))
    elif fault == "vertices":
        doc["vertices"] = draw(st.sampled_from([-1, "3", None, 2.5]))
    elif fault == "keys":
        del doc[draw(st.sampled_from(["vertices", "facets"]))]
    text = json.dumps(doc)
    if fault == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif fault == "text":
        text = draw(st.text(max_size=30))
    path = directory / (hashlib.sha256(text.encode()).hexdigest()[:16] + ".json")
    path.write_text(text)
    return path


@st.composite
def small_spec(draw, directory, room=MAX_VERTICES, depth=2):
    """A well-formed spec with at most `room` vertices."""
    kinds = ["simplex", "boundary", "file"]
    if depth:
        kinds += ["skeleton", "cone"]
    kind = draw(st.sampled_from(kinds))
    if kind == "boundary" and room >= 2:
        return f"boundary:{draw(st.integers(1, room - 1))}"
    if kind == "skeleton":
        base = draw(small_spec(directory, room, depth - 1))
        return f"skeleton:{base}:{draw(st.integers(0, 3))}"
    if kind == "cone" and room >= 2:
        return f"cone:{draw(small_spec(directory, room - 1, depth - 1))}"
    if kind == "file":
        return f"file:{draw(facet_file(directory, room))}"
    return f"simplex:{draw(st.integers(0, room - 1))}"


def malformed_spec(directory):
    def drop_one_char(spec):
        return st.integers(0, len(spec) - 1).map(
            lambda i: spec[:i] + spec[i + 1:])

    return st.one_of(
        st.sampled_from(MALFORMED_SPECS),
        st.text(alphabet="abcdeiklmnoprstxy:-_ ", max_size=20),
        small_spec(directory).flatmap(drop_one_char))


@st.composite
def command_line(draw, directory):
    command = draw(st.sampled_from(
        ["build", "fvector", "homology", "count-optimal", "euler", "verify"]))
    # at most one fault for argparse to catch, so most lines reach a command
    usage_fault = draw(st.sampled_from([None] * 6 + ["variant", "int", "flag"]))
    if command == "verify":
        argv = ["verify", draw(st.sampled_from(["all", "all", "no-such-check"])),
                "--max-n", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    else:
        spec = draw(st.one_of(small_spec(directory), small_spec(directory),
                              small_spec(directory), malformed_spec(directory)))
        argv = [command, "--complex", spec]
        variants = {"homology": ["none", "M", "MP", "GM"],
                    "count-optimal": ["M"]}.get(command, ["M", "MP", "GM"])
        variant = draw(st.sampled_from([None] + variants))
        if usage_fault == "variant":
            variant = draw(st.sampled_from(
                [v for v in ("X", "m", "", "none", "MP", "GM")
                 if v not in variants]))
        if variant is not None:
            argv += ["--variant", variant]
        if command == "homology":
            relative = draw(st.sampled_from([None, "self", "skeleton", "other"]))
            if relative == "self":
                argv += ["--relative", spec]
            elif relative == "skeleton":
                argv += ["--relative",
                         f"skeleton:{spec}:{draw(st.integers(0, 2))}"]
            elif relative == "other":
                argv += ["--relative", draw(st.one_of(
                    small_spec(directory), malformed_spec(directory)))]
            if draw(st.booleans()):
                argv.append("--unreduced")
    budget = draw(st.sampled_from([None, None, "0", "40", "5000"]))
    if usage_fault == "int":
        budget = draw(st.sampled_from(["abc", "1.5", ""]))
    if budget is not None:
        argv += ["--budget", budget]
    if usage_fault == "flag":
        argv.append("--no-such-flag")
    return argv + ["--cache-dir", str(directory / "cache")]


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_inputs_reach_a_documented_outcome(tmp_path_factory, data):
    directory = tmp_path_factory.getbasetemp() / "cli-fuzz"
    directory.mkdir(exist_ok=True)
    argv = data.draw(command_line(directory), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert isinstance(json.loads(out.getvalue()), dict)


@pytest.mark.parametrize("spec", [
    "cone:" * 1200 + "simplex:0",
    "skeleton:" * 1200 + "simplex:0" + ":0" * 1200,
])
def test_deeply_nested_specs_are_usage_errors(tmp_path, spec):
    # refused by the nesting limit with exit 2, not a RecursionError; the
    # child imports the package this test imported
    src = os.path.dirname(os.path.dirname(morsematch.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run(
        [sys.executable, "-m", "morsematch", "build", "--complex", spec,
         "--cache-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "nests more than" in proc.stderr
