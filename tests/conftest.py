import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import pytest


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path_factory, monkeypatch):
    # Keep Eulerian cache files out of the working tree during tests.
    cache_dir = tmp_path_factory.getbasetemp() / "eulerian-cache"
    monkeypatch.setenv("RIFFLE_CACHE_DIR", str(cache_dir))


@dataclass
class Result:
    """One in-process CLI call: its exit code, streams and uncaught exception."""

    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved in the order they were written
    exception: BaseException | None

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


class _Tee(io.StringIO):
    def __init__(self, both: io.StringIO) -> None:
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class Runner:
    """Calls ``main(args=...)`` in process with stdout and stderr captured."""

    def invoke(self, main, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                main(args=list(args), prog_name="riffle")
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code
                exception = exc if code != 0 else None
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)


@pytest.fixture(scope="session")
def runner():
    return Runner()
