"""Property check of ``cli.main``'s exit codes and of its no-secret rule.

Hypothesis draws a command line over a directory of production-group keys,
state files, envelopes and a message, some truncated, bit-flipped or swapped
for another file.  Whatever the input, ``main`` returns 0, 1, 2 or 3, writes
nothing to stdout unless it returns 0, and no rendering of a signer's y (its
decimal, its hex or its 32 big-endian octets) reaches stdout or stderr.  On
``PRODUCTION_GROUP`` y is a 77-digit number, so none of its renderings can
appear by chance.  Each example runs ``main`` once in process; no process is
started.
"""

import io
import os
import shutil
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from semecs import keystore
from semecs.cli import main

SCHEMES = ("semecs", "eta", "schnorr")
SECRET_FILES = tuple(f"{scheme}.sk" for scheme in SCHEMES)
FILES = (*SECRET_FILES, *(f"{scheme}.{ext}" for scheme in SCHEMES for ext in ("pk", "env")),
         "msg.bin")
MESSAGE = b"a reading from the field, signed once per index"


@pytest.fixture(scope="module")
def keys():
    """A directory of production keys, each signed once, and every signer's y."""
    directory = tempfile.mkdtemp(prefix="cli-properties-")
    path = lambda name: os.path.join(directory, name)  # noqa: E731
    with open(path("msg.bin"), "wb") as fh:
        fh.write(MESSAGE)
    with mock.patch.object(sys, "stderr", io.StringIO()):
        for scheme in SCHEMES:
            K = [] if scheme == "schnorr" else ["-K", "4"]
            assert main(["keygen", "--scheme", scheme, *K, "--out-prefix", path(scheme)]) == 0
            assert main(["sign", "--sk", path(f"{scheme}.sk"), "--in", path("msg.bin"),
                         "--out", path(f"{scheme}.env")]) == 0
    ys = []
    for name in SECRET_FILES:
        record = keystore.load_state(path(name))
        ys.append(int.from_bytes(record.payload[: record.params.scalar_len], "big"))
    yield directory, ys
    shutil.rmtree(directory)


def _renderings(y):
    octets = y.to_bytes(32, "big")
    return [str(y).encode(), format(y, "x").encode(), format(y, "X").encode(),
            octets.hex().encode(), octets]


_damage = st.one_of(
    st.tuples(st.just("truncate"), st.sampled_from(FILES), st.integers(0, 4000)),
    st.tuples(st.just("flip"), st.sampled_from(FILES), st.integers(0, 8 * 4000)),
    st.tuples(st.just("swap"), st.sampled_from(FILES), st.sampled_from(FILES)),
)
PATHS = (*FILES, "missing.bin", "env-out.bin", "fresh")
_path_arg = st.sampled_from(PATHS[:-1])
_extra = st.lists(st.sampled_from(["--no-index", "-K", "2", "--bogus", "", "--group", "toy"]),
                  max_size=2)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["sign", "verify", "inspect", "keygen", "bogus"]))
    args = {
        "sign": [("--sk", _path_arg), ("--in", _path_arg), ("--out", _path_arg)],
        "verify": [("--pk", _path_arg), ("--env", _path_arg)],
        "inspect": [("", _path_arg)],
        "keygen": [("--scheme", st.sampled_from(SCHEMES)), ("--group", st.just("toy")),
                   ("-K", st.sampled_from(["-1", "0", "1", "3", "x"])),
                   ("--out-prefix", st.just("fresh"))],
        "bogus": [],
    }[command]
    argv = [command]
    for flag, values in args:
        if draw(st.integers(0, 9)) == 0:  # now and then, leave an argument out
            continue
        argv += [flag, draw(values)] if flag else [draw(values)]
    return argv + draw(_extra)


def _damaged(directory, kind, name, arg):
    path = os.path.join(directory, name)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if kind == "truncate":
        data = data[: arg % (len(data) + 1)]
    elif kind == "flip" and data:
        data[arg // 8 % len(data)] ^= 1 << arg % 8
    elif kind == "swap" and not (name == "msg.bin" and arg in SECRET_FILES):
        # a message swapped for a secret file would be signed and then shown
        # by verify on purpose, so that swap is left out
        with open(os.path.join(directory, arg), "rb") as fh:
            data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data)


@settings(max_examples=60, deadline=None)
@given(argv=_argv(), damage=st.lists(_damage, max_size=2))
def test_cli_exits_in_range_and_never_shows_a_secret(keys, argv, damage):
    base, ys = keys
    with tempfile.TemporaryDirectory(prefix="cli-example-") as directory:
        for name in FILES:
            shutil.copy(os.path.join(base, name), directory)
        for kind, name, arg in damage:
            _damaged(directory, kind, name, arg)
        argv = [os.path.join(directory, a) if a in PATHS else a for a in argv]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stderr = io.StringIO()
        with mock.patch.dict(os.environ), mock.patch.object(sys, "stdout", stdout), \
                mock.patch.object(sys, "stderr", stderr):
            os.environ.pop("SEMECS_HOME", None)
            code = main(argv)
        stdout.flush()
        out, err = stdout.buffer.getvalue(), stderr.getvalue().encode("utf-8", "replace")
    assert code in (0, 1, 2, 3)
    assert code == 0 or out == b""
    for y in ys:
        for rendering in _renderings(y):
            assert rendering not in out and rendering not in err
