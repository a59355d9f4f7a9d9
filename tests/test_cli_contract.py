"""The CLI contract, drawn by hypothesis over the grammar of its argvs.

Every argv ends in one of four outcomes:
- exit 0 with its output on stdout (JSON records under ``--format record``);
- exit 1 with empty stdout and exactly one ``error: `` line on stderr;
- exit 1 from ``verify`` with its records, at least one of them failing;
- ``SystemExit(2)`` from argparse.

No other exception may escape ``cli.main``.
"""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from spreadpoly import verify
from spreadpoly.cli import _FAMILIES, MAX_SWEEP, main

# SPREADPOLY_MAX_INDEX for every draw, so that each admitted request is cheap.
CAP = 40
# The last choice of each is not in the grammar and must end in argparse's exit 2.
ROUTES = ("min", "fast", "slow")
FORMATS = ("text", "record", "json")


def index_near(minimum: int):
    return st.one_of(st.integers(minimum - 2, minimum + 2), st.integers(CAP - 2, CAP + 2))


def flag(name: str, values: tuple[str, ...]):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, v]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("show", "factor", "fib", "verify")))
    if command == "show":
        family = draw(st.sampled_from(sorted(_FAMILIES)))
        argv = ["show", family, str(draw(index_near(_FAMILIES[family][1])))]
        argv += draw(flag("--route", ROUTES))
    elif command == "factor":
        argv = ["factor", str(draw(index_near(1)))]
        argv += draw(st.sampled_from(([], ["zpread"], ["lucas"])))
        argv += draw(flag("--route", ROUTES))
    elif command == "fib":
        argv = ["fib", str(draw(index_near(1)))]
    else:
        sweeps = st.one_of(st.integers(-1, 6), st.integers(MAX_SWEEP + 1, 10 * MAX_SWEEP))
        argv = ["verify", "--sweep", str(draw(sweeps))]
        corrupt = draw(st.one_of(st.none(), st.integers(-1, 8)))
        if corrupt is not None:
            argv += ["--corrupt-phi", str(corrupt)]
    return argv + draw(flag("--format", FORMATS))


# The randomized verify suites draw 1000 instances whatever the sweep, about
# 1 s per run; ten keep each admitted verify cheap and leave every path in place.
@settings(max_examples=200, deadline=None)
@given(argv=argvs())
def test_every_argv_ends_in_a_contract_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"SPREADPOLY_MAX_INDEX": str(CAP)}), mock.patch.object(
        verify, "_INSTANCES", 10
    ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            assert out.getvalue() == ""
            return
    out, err = out.getvalue(), err.getvalue()
    lines = out.splitlines()
    record = argv[-2:] == ["--format", "record"]
    if code == 0:
        assert err == "" and lines
        if record:
            for line in lines:
                fields = json.loads(line)
                assert list(fields)[-1] == "status"
                assert fields["status"] in ("ok", "pass")
    elif not lines:
        assert code == 1
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert (code, argv[0], err) == (1, "verify", "")
        if record:
            assert "fail" in [json.loads(line)["status"] for line in lines]
        else:
            assert any(line.startswith("FAIL") for line in lines)
