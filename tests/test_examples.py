"""The runnable examples still run and still tell the same story."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


@pytest.mark.parametrize(
    "name, last_lines",
    [
        (
            "live_network.py",
            [
                "discoveries: 20/20 resolved to the current address, "
                "mean RTT 0.207 virtual units",
                "every node kept its hash key through 365 moves — "
                "end-to-end identity held.",
            ],
        ),
        (
            "heterogeneous_swarm.py",
            [
                "          15 |    104 |           1.71 |    2 |       100% |         9720",
                "",
                "weak swarms (MAX=1) advertise through chains — every update "
                "crawls node-to-node;",
                "heterogeneous swarms recruit their super-nodes as fan-out "
                "points and flatten the trees (Fig 8).",
            ],
        ),
    ],
)
def test_example_runs(name, last_lines, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    out = capsys.readouterr().out.splitlines()
    assert out[-len(last_lines):] == last_lines
