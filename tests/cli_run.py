"""Runs the `gamemac` CLI in process, as its console script would."""

import contextlib
import io

from gamemac.cli import main


class Result:
    """exit_code, output (stdout, then stderr) and exception: the
    SystemExit that ended the run, an exception that escaped `main`, or
    None."""

    def __init__(self, exit_code, output, exception):
        self.exit_code, self.output, self.exception = exit_code, output, exception


def invoke(*args: str) -> Result:
    out, err = io.StringIO(), io.StringIO()
    exit_code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as exc:
            exit_code, exception = exc.code or 0, exc
        except Exception as exc:
            exit_code, exception = 1, exc
    return Result(exit_code, out.getvalue() + err.getvalue(), exception)
