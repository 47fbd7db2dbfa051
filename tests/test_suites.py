"""Suite reports: pinned bytes, and one sample set per dimension shared by every generator."""

import hashlib
from unittest import mock

import pytest

from statediv import suites
from statediv.suites import DEFAULT_GENERATORS, run_suite

# SHA-256 of run_suite(...).to_json(), taken when every suite still drew its
# samples once per generator.  The cases cover a non-member generator
# (power:q=3), which draws a shorter convexity stream than the members.
PINNED = (
    ("all", {}, "dd2248374da3c724a889e1d626729620b46ac0bbfa88c941dbc5dafafdc9dbb3"),
    (
        "all",
        {"dims": (2, 5), "seed": 7, "generator_specs": ("power:q=3", "xlogx", "power:q=5/4")},
        "f45a105fd2ec4992b805b34d547262585acabe9027d18729f00cbdbc84c74018",
    ),
    (
        "convexity",
        {"dims": (3,), "generator_specs": ("quadratic", "power:q=3")},
        "93eef9a4a4cde272084d9879b9be2943f39fd5e3e2ba8756a1905a96d02dcd37",
    ),
)


@pytest.mark.parametrize("name, kwargs, digest", PINNED, ids=["all-default", "all-mixed", "convexity-mixed"])
def test_report_bytes_are_pinned(name, kwargs, digest):
    report = run_suite(name, **kwargs)
    assert report.passed
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def _random_state_calls(generator_specs) -> int:
    with mock.patch.object(suites, "random_state", wraps=suites.random_state) as spy:
        run_suite("all", dims=(2, 3), generator_specs=generator_specs)
    return spy.call_count


def test_samples_are_drawn_once_per_dimension():
    assert _random_state_calls(("xlogx",)) == _random_state_calls(DEFAULT_GENERATORS)
