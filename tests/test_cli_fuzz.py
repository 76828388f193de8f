"""Every CLI input ends in an answer (0), a usage error (2) or a size guard (3).

Argument lists are drawn from a vocabulary of well-formed, malformed and
edge tokens per subcommand. Sizes stay small (n <= 40, k <= 8, at most five
time points, verify bounds of at most 3), so each example runs in
milliseconds. The only EDGE tokens that parse as ints are 0 and -1, so
none can raise a size.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from riffle.cli import main

EDGE = ["0", "-1", "nan", "inf", "2**9", "", "--bogus", "-x"]
SIZES = (["1", "2", "7", "40"], [])
PACKS = (
    ["2:1", "2:1/2,3:1/2", "3:1/4,5:3/4", "1:1"],
    ["invsq", "2:0.5", "0:1", "2:1/3", "2:1,2:0", ":"],
)
FORMATS = (["csv", "json"], ["xml"])

# Per subcommand: option -> (well-formed values, malformed values).
OPTIONS = {
    "profile": {
        "--n": SIZES,
        "--p": PACKS,
        "--k": (["0..0", "1..8", "3..5", "8..8"], ["5..2", "1..", "a..b", "1..2**9"]),
        "--format": FORMATS,
    },
    "poisson": {
        "--n": SIZES,
        "--p": PACKS,
        "--t": (
            ["0:0:1", "0:4:1", "1:2:0.5", "4:4:1"],
            ["2:1:1", "0:1:0", "-1:1:1", "1:2:-1", "inf:inf:1", "1:nan:1",
             "0:4:1e-300", "1e308:1e308:1e-308"],
        ),
        "--tol": (["1e-9", "1e-6", "0.5"], ["1e-17", "1e-300", "1"]),
        "--format": FORMATS,
    },
    "cutoff": {
        "--n": SIZES,
        "--n-grid": (["2:40:19", "1:3:1", "10:40:10"], ["5:1:1", "1:1e3:1", "0:2:1", "1:1000000000:1"]),
        "--p": PACKS,
        "--a-n": (["logn", "2*logn", "0.5"], ["(1", "-1", "1/0", "9**9**9"]),
        "--format": FORMATS,
    },
    "verify": {
        "--suite": (["oracles", "composition", "monotonicity", "tailsets", "sampler", "all"], ["nope"]),
        "--n": (["1", "2", "3"], ["-1", "0"]),
        "--m": (["1", "2", "3"], ["-1", "0"]),
        "--N": (["1", "50"], ["-5", "0"]),
        "--seed": (["0", "7"], ["-1"]),
    },
}
# Options always given: those the command needs, and verify's bounds, whose
# defaults (n <= 8, m <= 30, N = 100000) are far above the size bounds.
REQUIRED = {
    "profile": ("--n", "--p", "--k"),
    "poisson": ("--n", "--p", "--t"),
    "cutoff": ("--p",),
    "verify": ("--n", "--m", "--N"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    options = OPTIONS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), unique=True))
    chosen += [flag for flag in REQUIRED[command] if flag not in chosen]
    argv = [command]
    for flag in draw(st.permutations(chosen)):
        # Six values in eight are well-formed, so whole valid calls are common.
        good, bad = options[flag]
        pick = draw(st.integers(0, 7))
        values = EDGE if pick == 0 else (bad or EDGE) if pick == 1 else good
        argv += [flag, draw(st.sampled_from(values))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(EDGE)))
    return argv


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
# A tolerance the float Poisson weights never reach used to loop to k = 20000.
@example(["poisson", "--n", "52", "--p", "2:1", "--t", "4:4:1", "--tol", "1e-17"])
# Non-finite time grids used to hang (inf) or print an empty table (nan).
@example(["poisson", "--n", "40", "--p", "2:1", "--t", "inf:inf:1"])
@example(["poisson", "--n", "40", "--p", "2:1", "--t", "1:nan:1"])
# log 1 = 0 used to divide the condition ratios by zero.
@example(["cutoff", "--n-grid", "1:3:1", "--p", "2:1/2,3:1/2", "--a-n", "1"])
def test_cli_fuzz_exit_contract(runner, argv):
    result = runner.invoke(main, argv)
    assert result.exit_code in (0, 2, 3), (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv
    assert "Traceback" not in result.output
    if result.exit_code == 0 and argv[0] in ("profile", "poisson"):
        # An answer has rows; a bare header is no answer.
        out = result.output.strip()
        rows = json.loads(out)["rows"] if out.startswith("{") else out.splitlines()[1:]
        assert rows, argv
