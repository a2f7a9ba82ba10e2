"""Byte-exact CLI transcripts.

Each case runs ``bsgraph.cli.run`` on one argument list and compares the
exit code, stdout and stderr with ``tests/golden/cli.json`` byte for byte.
The cases cover every shipped fixture under every subcommand, in text,
``--json`` and (where offered) ``--dot`` form, plus the finding and error
paths.  Regenerate the file only when an output change is intended:

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

from bsgraph.cli import run

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "cli.json"
FIXTURE_DIR = HERE.parent / "fixtures"

# fixture key -> (file, path, compose lhs, compose rhs, split degree, enumeration degree)
FIXTURES = {
    "E": ("example_E.cg", "g g f h", "g g", "f h", "bb", "ba"),
    "E_missing": ("example_E_missing_phi2.cg", "g g f h", "g g", "f h", "bb", "ba"),
    "grid": ("grid_single_vertex.cg", "rho beta rho", "rho beta", "beta", "1,0", "1,1"),
}

# key -> (file, compose lhs, compose rhs, split degree); the lifted path is lhs rhs.
LONG_PATHS = {
    "E10": ("example_E.cg", "g f k h g", "g f k k h", "bba"),
    "grid12": (
        "grid_single_vertex.cg",
        "rho beta rho beta rho beta",
        "beta rho beta rho beta rho",
        "3,2",
    ),
}


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for key, (name, path, lhs, rhs, at, degree) in FIXTURES.items():
        fx = str(FIXTURE_DIR / name)
        per_command = {
            "check": (["check", fx], ("", "--json")),
            "lift": (["lift", fx, "--path", path], ("", "--json", "--dot", "--oracle")),
            "compose": (["compose", fx, "--lhs", lhs, "--rhs", rhs], ("", "--json")),
            "factorize": (["factorize", fx, "--path", path, "--at", at], ("", "--json")),
            "traversals": (
                ["traversals", fx, "--path", path],
                ("", "--json", "--shortest", "--longest"),
            ),
            "enumerate": (["enumerate", fx, "--degree", degree], ("", "--json")),
            "verify": (["verify", fx, "--max-len", "2"], ("", "--json")),
        }
        for command, (argv, forms) in per_command.items():
            for form in forms:
                cases[f"{command}-{key}-{form.lstrip('-') or 'text'}"] = argv + (
                    [form] if form else []
                )
    for mode, word in (("bs", "bbaa"), ("grid", "2,1")):
        for form in ("", "--json", "--dot"):
            cases[f"model-{mode}-{form.lstrip('-') or 'text'}"] = (
                ["model", "--word", word, "--mode", mode] + ([form] if form else [])
            )
    for op, args in (
        ("normalize", ["bbaa"]),
        ("mul", ["b", "a"]),
        ("quotient", ["bb", "bbaa"]),
        ("prefix", ["b", "abab"]),
    ):
        for form in ("", "--json"):
            cases[f"word-{op}-{form.lstrip('-') or 'text'}"] = (
                ["word", op, *args] + ([form] if form else [])
            )
    cases.update({
        "error-verify-bogus-laws": ["verify", str(FIXTURE_DIR / "example_E.cg"), "--laws", "bogus"],
        "error-word-negative-exponent": ["word", "mul", "a^-1", "b"],
        "error-missing-file": ["check", "no_such_file.cg"],
        "error-word-quotient-not-prefix": ["word", "quotient", "a", "b"],
        "error-grid-factorize-not-prefix": [
            "factorize", str(FIXTURE_DIR / "grid_single_vertex.cg"), "--path", "rho", "--at", "0,1",
        ],
        "error-grid-negative-degree": ["model", "--word=-1,2", "--mode", "grid"],
    })
    # Dense morphism JSON: an identity morphism, an empty enumeration, and
    # long paths whose model graphs have dozens of vertices.
    e_fx = str(FIXTURE_DIR / "example_E.cg")
    cases["lift-E-identity-json"] = ["lift", e_fx, "--path", "u", "--json"]
    cases["enumerate-E-empty-json"] = ["enumerate", e_fx, "--degree", "ba", "--limit", "0", "--json"]
    # Larger law sweeps, so every composite the law suites share is pinned.
    cases["verify-E-len4-json"] = ["verify", e_fx, "--max-len", "4", "--json"]
    cases["verify-grid-len5-json"] = [
        "verify", str(FIXTURE_DIR / "grid_single_vertex.cg"), "--max-len", "5", "--json",
    ]
    for key, (name, lhs, rhs, at) in LONG_PATHS.items():
        fx = str(FIXTURE_DIR / name)
        cases[f"lift-{key}-json"] = ["lift", fx, "--path", f"{lhs} {rhs}", "--json"]
        cases[f"lift-{key}-dot"] = ["lift", fx, "--path", f"{lhs} {rhs}", "--dot"]
        cases[f"compose-{key}-json"] = ["compose", fx, "--lhs", lhs, "--rhs", rhs, "--json"]
        cases[f"factorize-{key}-json"] = [
            "factorize", fx, "--path", f"{lhs} {rhs}", "--at", at, "--json",
        ]
    return cases


CASES = _cases()


def transcript(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_transcript(case, golden):
    assert transcript(CASES[case]) == golden[case]


if __name__ == "__main__":
    recorded = {case: transcript(argv) for case, argv in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} transcripts to {GOLDEN}")
